package main

import (
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		m := w.build(t.TempDir()).mix
		a, err := buildSchedule(m, w.openRate, 10*time.Second, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildSchedule(m, w.openRate, 10*time.Second, 7)
		c, _ := buildSchedule(m, w.openRate, 10*time.Second, 8)
		if scheduleHash(a) != scheduleHash(b) {
			t.Errorf("%s: seed 7 gave two schedules", w.name)
		}
		if scheduleHash(a) == scheduleHash(c) {
			t.Errorf("%s: seeds 7 and 8 gave one schedule", w.name)
		}
		events := 0
		for i, s := range a {
			if i > 0 && s.Due < a[i-1].Due {
				t.Fatalf("%s: arrival %d due before its predecessor", w.name, i)
			}
			if i == 0 || s.Due != a[i-1].Due {
				events++
			}
		}
		if want := int(w.openRate * 10); events != want {
			t.Errorf("%s: %d arrival events in 10 s at %g/s, want %d", w.name, events, w.openRate, want)
		}
	}
}

func TestPairsLandOnOneOrTwoHomes(t *testing.T) {
	m := flashCrowd().mix
	s, err := buildSchedule(m, 10, 20*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 400 {
		t.Fatalf("%d sessions from 200 pairs", len(s))
	}
	same := 0
	for i := 0; i < len(s); i += 2 {
		if s[i].Due != s[i+1].Due || s[i].Title != s[i+1].Title {
			t.Fatalf("pair %d is not one title due at once: %+v %+v", i/2, s[i], s[i+1])
		}
		if s[i].Home == s[i+1].Home {
			same++
		}
	}
	if same < 70 || same > 130 {
		t.Errorf("%d of 200 pairs on one home, want about half", same)
	}
}
