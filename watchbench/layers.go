package main

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"time"

	"dvod/internal/admission"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/striping"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// counters sums every node's Service.Metrics counters and gauges by name.
type counters struct {
	c map[string]float64
	g map[string]float64
}

func readCounters(f *fleet) counters {
	out := counters{c: map[string]float64{}, g: map[string]float64{}}
	for _, snap := range f.svc.Metrics() {
		for k, v := range snap.Counters {
			out.c[k] += float64(v)
		}
		for k, v := range snap.Gauges {
			out.g[k] += v
		}
	}
	return out
}

// delta is how far counter name moved from before to after; a name ending
// in "." sums every counter under that prefix (the per-class tallies).
func delta(before, after counters, name string) float64 {
	return sumPrefix(after.c, name) - sumPrefix(before.c, name)
}

func sumPrefix(m map[string]float64, name string) float64 {
	if !strings.HasSuffix(name, ".") {
		return m[name]
	}
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, name) {
			s += v
		}
	}
	return s
}

// probeClusters are the clusters of a session's title the disk and
// transport probes move.
var probeClusters = []int{0, titleClusters / 2}

// probes times the benchmark's own calls into single layers with a traced
// session's inputs: the VRA plan through the facade, a standalone admission
// broker fed the planned route, striped reads on a private array of the
// workload's disk kind, and one cluster over a loopback connection.
type probes struct {
	f       *fleet
	shared  bool
	broker  *admission.Broker
	arr     *disk.Array
	layouts map[string]striping.Layout
	pool    *transport.BufferPool
	ln      net.Listener
	tx, rx  *transport.Conn
}

func newProbes(w workloadDef, f *fleet, dir string) (*probes, error) {
	snap, err := grnet.Snapshot(grnet.At10am)
	if err != nil {
		return nil, err
	}
	brk, err := admission.New(admission.Config{
		Node:         "probe",
		CapacityMbps: admissionMbps,
		Snapshot:     func() (*topology.Snapshot, error) { return snap, nil },
	})
	if err != nil {
		return nil, err
	}
	perDisk := int64(len(f.spec.titles)) * titleBytes / 2
	var arr *disk.Array
	if w.fileBacked {
		arr, err = disk.NewUniformFileArray("probe", 2, perDisk, filepath.Join(dir, "probe"))
	} else {
		arr, err = disk.NewUniformArray("probe", 2, perDisk)
	}
	if err != nil {
		return nil, err
	}
	p := &probes{f: f, shared: w.shared, broker: brk, arr: arr,
		layouts: map[string]striping.Layout{}, pool: transport.NewBufferPool(nil)}
	if err := p.connect(); err != nil {
		return nil, err
	}
	return p, nil
}

// connect opens the loopback connection clusters are sent over, with binary
// framing on both ends.
func (p *probes) connect() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.ln = ln
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-accepted
		return err
	}
	rx := <-accepted
	if rx == nil {
		tx.Close()
		ln.Close()
		return fmt.Errorf("probe connection: accept failed")
	}
	p.tx, p.rx = transport.NewConn(tx), transport.NewConn(rx)
	p.tx.EnableBinaryFrames()
	p.rx.EnableBinaryFrames()
	return nil
}

func (p *probes) close() {
	if p.tx != nil {
		p.tx.Close()
		p.rx.Close()
	}
	if p.ln != nil {
		p.ln.Close()
	}
}

// layout stripes a title onto the private array the first time it is used,
// outside any timed span.
func (p *probes) layout(title string) (striping.Layout, error) {
	if l, ok := p.layouts[title]; ok {
		return l, nil
	}
	l, err := striping.Write(p.arr, p.f.titles[title], clusterBytes, nil)
	if err != nil {
		return striping.Layout{}, err
	}
	p.layouts[title] = l
	return l, nil
}

// probeTimes collects the probes' samples.
type probeTimes struct {
	plan, admit, read, send []float64 // microseconds
	kernelSends             int
}

// run probes every session reps times for plan and admission, and moves
// probeClusters of its title through disk and transport once, recording
// each call as a span under a "probe" root in the session's trace.
func (p *probes) run(tr *tracer, sessions []*session, reps int) (probeTimes, error) {
	var pt probeTimes
	for _, s := range sessions {
		start := time.Now()
		root := tr.newID()
		if err := p.probe(tr, s, root, reps, &pt); err != nil {
			return pt, err
		}
		tr.record(s.trace, root, 0, "probe", start, time.Now())
	}
	return pt, nil
}

func (p *probes) probe(tr *tracer, s *session, root int64, reps int, pt *probeTimes) error {
	for range reps {
		t0 := time.Now()
		dec, err := p.f.svc.Plan(s.Home, s.Title)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("plan %s@%s: %w", s.Title, s.Home, err)
		}
		tr.add(s.trace, root, "core.plan", t0, t1)
		pt.plan = append(pt.plan, us(t1.Sub(t0)))

		req := admission.Request{Title: s.Title, BitrateMbps: bitrateMbps}
		if !dec.Local {
			req.Links = dec.Path.Links()
		}
		t0 = time.Now()
		var g *admission.Grant
		if p.shared {
			g, err = p.broker.AdmitWaitShared(req, "watch:"+s.Title)
		} else {
			g, err = p.broker.AdmitWait(req)
		}
		if err != nil {
			return fmt.Errorf("admit %s@%s: %w", s.Title, s.Home, err)
		}
		p.broker.Release(g)
		t1 = time.Now()
		tr.add(s.trace, root, "admission.admit", t0, t1)
		pt.admit = append(pt.admit, us(t1.Sub(t0)))
	}
	l, err := p.layout(s.Title)
	if err != nil {
		return err
	}
	for _, idx := range probeClusters {
		if err := p.readCluster(tr, s, root, l, idx, pt); err != nil {
			return err
		}
		if err := p.sendCluster(tr, s, root, l, idx, pt); err != nil {
			return err
		}
	}
	return nil
}

func (p *probes) readCluster(tr *tracer, s *session, root int64, l striping.Layout, idx int, pt *probeTimes) error {
	buf := p.pool.Get(clusterBytes)
	defer p.pool.Put(buf)
	t0 := time.Now()
	n, err := striping.ReadPartInto(p.arr, l, idx, buf)
	t1 := time.Now()
	if err != nil {
		return err
	}
	off, _, _ := l.PartRange(idx)
	if !media.Verify(s.Title, off, buf[:n]) {
		return fmt.Errorf("probe read of %s cluster %d: content mismatch", s.Title, idx)
	}
	tr.add(s.trace, root, "disk.read", t0, t1)
	pt.read = append(pt.read, us(t1.Sub(t0)))
	return nil
}

// sendCluster times one cluster from WriteClusterBody on one end of the
// loopback connection to ReadFrameOrMessage returning it on the other: a
// file frame on a file-backed array, pooled bytes otherwise.
func (p *probes) sendCluster(tr *tracer, s *session, root int64, l striping.Layout, idx int, pt *probeTimes) error {
	off, length, err := l.PartRange(idx)
	if err != nil {
		return err
	}
	payload := transport.ClusterPayload{Title: s.Title, Index: idx, Offset: off, Length: length, Source: "probe"}
	var frame *transport.Frame
	if ref, ok := striping.PartFileRef(p.arr, l, idx); ok {
		frame = transport.NewFileFrame(ref.File(), ref.Offset(), ref.Size(), ref.Close)
	} else {
		buf := p.pool.Get(int(length))
		if _, err := striping.ReadPartInto(p.arr, l, idx, buf); err != nil {
			p.pool.Put(buf)
			return err
		}
		frame = transport.NewLeasedFrame(p.pool, buf)
	}
	t0 := time.Now()
	type sent struct {
		kernel bool
		err    error
	}
	done := make(chan sent, 1)
	go func() {
		k, err := p.tx.WriteClusterBody(p.pool, transport.TypeCluster, payload, frame)
		frame.Release()
		done <- sent{k, err}
	}()
	_, got, rerr := p.rx.ReadFrameOrMessage(p.pool)
	w := <-done
	t1 := time.Now()
	if w.err != nil {
		if got != nil {
			got.Release()
		}
		return w.err
	}
	if rerr != nil {
		return rerr
	}
	if got == nil {
		return fmt.Errorf("probe send: no frame")
	}
	_, body, derr := transport.DecodeClusterFrame(got)
	if derr == nil && int64(len(body)) != length {
		derr = fmt.Errorf("probe send: %d bytes, want %d", len(body), length)
	}
	got.Release()
	if derr != nil {
		return derr
	}
	if w.kernel {
		pt.kernelSends++
	}
	tr.add(s.trace, root, "transport.send", t0, t1)
	pt.send = append(pt.send, us(t1.Sub(t0)))
	return nil
}

// probeReps is how many plan and admission probes each probed session gets,
// so that each has at least 110 samples, enough for a p90.
func probeReps(sessions int) int {
	if sessions <= 0 {
		return 0
	}
	return int(math.Ceil(110 / float64(sessions)))
}
