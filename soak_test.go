package dynq

import (
	"testing"

	"dynq/internal/pager"
)

// TestFaultSoakShort runs a scaled-down version of the dqbench -faults
// soak: every cycle must either recover the exact committed state or
// report typed corruption — never a wrong answer.
func TestFaultSoakShort(t *testing.T) {
	cycles := 40
	if testing.Short() {
		cycles = 10
	}
	rep, err := FaultSoak(SoakOptions{
		Cycles: cycles,
		Seed:   7,
		Batch:  24,
		Dir:    t.TempDir(),
		Log:    t.Logf,
	})
	if err != nil {
		t.Fatalf("soak harness error: %v\nreport: %s", err, rep)
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("soak returned %d wrong answers: %s", rep.WrongAnswers, rep)
	}
	if rep.Cycles != cycles {
		t.Fatalf("ran %d cycles, want %d", rep.Cycles, cycles)
	}
	if rep.CleanRecoveries+rep.DetectedCorruption != cycles {
		t.Fatalf("every cycle must end in clean recovery or detected corruption: %s", rep)
	}
	if rep.CleanRecoveries == 0 {
		t.Fatalf("soak never recovered cleanly — fault mix too hot to test recovery: %s", rep)
	}
	t.Logf("soak: %s", rep)
}

// TestFaultSoakDeterministic replays the same seed twice and expects
// identical reports — the property that makes soak failures debuggable.
func TestFaultSoakDeterministic(t *testing.T) {
	run := func() SoakReport {
		rep, err := FaultSoak(SoakOptions{Cycles: 12, Seed: 42, Batch: 16, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("soak: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different soaks:\n  %s\n  %s", a, b)
	}
}

// TestWALSoakDeterministic replays the same seed twice, single-tree and
// sharded, and expects identical reports: the shared crash/replay cycle
// must draw from the seeded workload in a fixed order.
func TestWALSoakDeterministic(t *testing.T) {
	for _, shards := range []int{1, 3} {
		run := func() WALSoakReport {
			rep, err := WALSoak(WALSoakOptions{Cycles: 10, Seed: 42, Batch: 16, Shards: shards, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%d shards: soak: %v", shards, err)
			}
			return rep
		}
		a, b := run(), run()
		if a != b {
			t.Fatalf("%d shards: same seed produced different soaks:\n  %s\n  %s", shards, a, b)
		}
		if a.Tears == 0 || a.AsyncSurvived == 0 {
			t.Fatalf("%d shards: soak exercised nothing: %s", shards, a)
		}
	}
}

// TestFaultSoakAllFaultsOff is the control: with an empty plan every
// cycle commits and recovers cleanly.
func TestFaultSoakAllFaultsOff(t *testing.T) {
	rep, err := FaultSoak(SoakOptions{
		Cycles: 8,
		Seed:   3,
		Batch:  16,
		Plan:   &pager.FaultPlan{},
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if rep.DetectedCorruption != 0 || rep.WrongAnswers != 0 ||
		rep.CommitsSucceeded != rep.Cycles || rep.CleanRecoveries != rep.Cycles {
		t.Fatalf("fault-free soak should commit and recover every cycle: %s", rep)
	}
}
