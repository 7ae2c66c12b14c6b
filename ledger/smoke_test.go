package main

import (
	"testing"
	"time"
)

// tiny runs a workload at a small scale for a fixed number of measured
// epochs or rounds, so a run takes about a second.
func tiny(workload string, scale float64, rounds int, trace bool) options {
	return options{workload: workload, seed: 7, seconds: time.Second, trace: trace, scale: scale, setups: 1, rounds: rounds}
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up targets and mounts")
	}
	for _, wl := range []string{"cold-ckpt", "warm", "cluster-peer"} {
		for _, trace := range []bool{false, true} {
			rep, out, err := run(tiny(wl, 0.05, 2, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", wl, trace, rep.Correct, rep.Attempted, rep.Failed, out.mismatch)
			}
			defs := endToEndDefs
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", wl, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Fatalf("%s trace=%v: metric %s = %+v", wl, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", wl, d.name, m.Value)
				}
			}
			if trace && out.tr.spanCount() == 0 {
				t.Errorf("%s: traced run recorded no spans", wl)
			}
		}
	}
}

// TestColdCkptCountsRepeat pins the counts a later change may make
// claims about: with the same seed and the same number of epochs, the
// cold-ckpt wire reads, nvmetcp commands and segments per epoch and the
// checkpoint commands, segments and flushes per save repeat exactly.
func TestColdCkptCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up targets and mounts")
	}
	counts := []string{
		"live.wire_reads_per_epoch", "live.coalesce_ratio", "live.wire_bytes_per_sample_byte",
		"nvmetcp.cmds_per_epoch", "nvmetcp.bytes_per_epoch", "nvmetcp.vec_segments_per_epoch",
		"live.ckpt_write_cmds_per_save", "live.ckpt_write_segs_per_save", "live.ckpt_flushes_per_save",
		"nvmetcp.vec_write_cmds", "nvmetcp.flush_cmds", "blockdev.adopted_extents",
	}
	var first map[string]metricValue
	for i := 0; i < 2; i++ {
		rep, out, err := run(tiny("cold-ckpt", 0.25, 3, true))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("run %d: correct=%v failed=%d %v", i, rep.Correct, rep.Failed, out.mismatch)
		}
		if i == 0 {
			first = rep.Metrics
			if first["live.wire_reads_per_epoch"].Value == 0 || first["live.ckpt_write_cmds_per_save"].Value == 0 {
				t.Fatalf("cold-ckpt counted no wire reads or checkpoint commands: %v", first)
			}
			continue
		}
		for _, k := range counts {
			if rep.Metrics[k].Value != first[k].Value {
				t.Errorf("%s: %v then %v", k, first[k].Value, rep.Metrics[k].Value)
			}
		}
	}
}
