package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	dlfsmetrics "dlfs/internal/metrics"
)

// layerFinal is what the per-layer metrics need from a deployment before
// it is torn down.
type layerFinal struct {
	pipeHist  *dlfsmetrics.PipelineHistSnapshot // window delta (nil untraced)
	srvHist   *dlfsmetrics.ServerHistSnapshot   // window delta (nil untraced)
	counters  map[string]float64                // absolute, at window end
	mount     dlfsmetrics.MountSnapshot         // summed over ranks
	elections int64
}

// layerEnd captures the window's histogram deltas and the gauges that
// only the live deployment can report.
func (o *outcome) layerEnd(e *env, ph0 *dlfsmetrics.PipelineHistSnapshot, sh0 *dlfsmetrics.ServerHistSnapshot) {
	ph1, sh1 := e.hists()
	if ph0 != nil && ph1 != nil {
		o.final.pipeHist = &dlfsmetrics.PipelineHistSnapshot{
			Prep: ph1.Prep.Sub(ph0.Prep), Post: ph1.Post.Sub(ph0.Post), Poll: ph1.Poll.Sub(ph0.Poll),
			Copy: ph1.Copy.Sub(ph0.Copy), Read: ph1.Read.Sub(ph0.Read), Ckpt: ph1.Ckpt.Sub(ph0.Ckpt),
		}
	}
	if sh0 != nil && sh1 != nil {
		o.final.srvHist = &dlfsmetrics.ServerHistSnapshot{
			QueueWait: sh1.QueueWait.Sub(sh0.QueueWait), Service: sh1.Service.Sub(sh0.Service),
			Flush: sh1.Flush.Sub(sh0.Flush), Write: sh1.Write.Sub(sh0.Write),
		}
	}
	o.final.counters = e.counters()
	for _, fs := range e.fss {
		m := fs.MountStats()
		o.final.mount.IndexNanos += m.IndexNanos
		o.final.mount.AllgatherNanos += m.AllgatherNanos
		o.final.mount.AssembleNanos += m.AssembleNanos
		o.final.mount.BarrierNanos += m.BarrierNanos
	}
	if e.cons != nil {
		o.final.elections = e.cons.Elections.Load()
	}
}

// p50us is a histogram's median in microseconds (0 without histograms).
func p50us(h *dlfsmetrics.HistSnapshot) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return us(h.P50())
}

// layerMetrics computes every per-layer metric from a run. Counts are
// normalised per epoch, per save or per read as their units say, so that
// runs of different lengths compare; totals are over the measured window.
func layerMetrics(out *outcome) map[string]metricValue {
	a := out.acct
	st := out.tr.stats()
	sec := func(ns float64) float64 { return ns / 1e9 }
	epochs := float64(out.epochs)
	saves := float64(out.saves)
	units := float64(out.units)
	epochPhases := []string{"epoch", "eval"}
	var reads float64
	if out.epochs == 0 {
		reads = units
	}

	var prep, post, poll, cpy, rd *dlfsmetrics.HistSnapshot
	if h := out.final.pipeHist; h != nil {
		prep, post, poll, cpy, rd = &h.Prep, &h.Post, &h.Poll, &h.Copy, &h.Read
	}
	var qwait, service, flush *dlfsmetrics.HistSnapshot
	if h := out.final.srvHist; h != nil {
		qwait, service, flush = &h.QueueWait, &h.Service, &h.Flush
	}

	wall, _, verify, recycle, rest := consumerSplit(out)

	// The set-up's save and the window's saves have filled both
	// checkpoint slots of every rank.
	userBytes := float64(out.datasetBytes + int64(2*out.ranks*out.stateBytes))

	v := map[string]float64{
		"live.next_batch_s":               0,
		"live.prep_s":                     sec(a.all("pipe.prep_ns")),
		"live.post_s":                     sec(a.all("pipe.post_ns")),
		"live.poll_s":                     sec(a.all("pipe.poll_ns")),
		"live.copy_s":                     sec(a.all("pipe.copy_ns")),
		"live.prep_p50_us":                p50us(prep),
		"live.post_p50_us":                p50us(post),
		"live.poll_p50_us":                p50us(poll),
		"live.copy_p50_us":                p50us(cpy),
		"live.unattributed_share":         ratio(rest.Seconds(), wall.Seconds()),
		"live.wire_reads_per_epoch":       ratio(a.get("pipe.wire_reads", epochPhases...), epochs),
		"live.wire_bytes_per_sample_byte": ratio(a.get("pipe.wire_bytes", epochPhases...), float64(out.unitBytes)),
		"live.coalesce_ratio":             ratio(a.get("pipe.wire_segments", epochPhases...), a.get("pipe.wire_reads", epochPhases...)),
		"live.allocs_per_sample":          ratio(a.all("rt.mallocs"), units),
		"live.prefetch_hit_units":         ratio(a.get("pipe.prefetch_hit_units", epochPhases...), epochs),
		"live.prefetch_coverage":          ratio(a.get("pipe.prefetch_hit_units", epochPhases...), a.get("pipe.prefetch_hit_units", epochPhases...)+a.get("pipe.wire_reads", epochPhases...)+a.get("pipe.coalesced_units", epochPhases...)),
		"live.prefetch_evictions":         ratio(a.get("pipe.prefetch_evictions", epochPhases...), epochs),
		"live.read_sample_p50_us":         p50us(rd),
		"live.read_cache_hit_share":       ratio(a.all("pipe.cache_hits"), reads),
		"live.read_cache_evictions":       ratio(a.all("pipe.cache_evictions"), reads),
		"live.recycle_s":                  recycle.Seconds(),
		"live.wait_prefetch_s":            st["live.WaitPrefetch"].Total.Seconds(),
		"live.save_s":                     ratio(out.saveTime.Seconds(), saves),
		"live.ckpt_write_cmds_per_save":   ratio(a.get("pipe.ckpt_write_cmds", "save"), saves),
		"live.ckpt_write_segs_per_save":   ratio(a.get("pipe.ckpt_write_segs", "save"), saves),
		"live.ckpt_flushes_per_save":      ratio(a.get("pipe.ckpt_flushes", "save"), saves),
		"live.ckpt_downgrades":            a.all("pipe.ckpt_downgrades"),
		"live.retries":                    a.all("res.retries"),
		"live.timeouts":                   a.all("res.timeouts"),
		"live.breaker_opens":              a.all("res.breaker_trips"),
		"bufpool.hit_rate":                ratio(a.all("pipe.pool_hits"), a.all("pipe.pool_hits")+a.all("pipe.pool_misses")),
		"nvmetcp.qwait_s":                 sec(a.all("srv.qwait_ns")),
		"nvmetcp.service_s":               sec(a.all("srv.service_ns")),
		"nvmetcp.flush_s":                 sec(a.all("srv.flush_ns")),
		"nvmetcp.qwait_p50_us":            p50us(qwait),
		"nvmetcp.service_p50_us":          p50us(service),
		"nvmetcp.flush_p50_us":            p50us(flush),
		"nvmetcp.cmds_per_epoch":          ratio(a.get("tgt.cmds", epochPhases...), epochs),
		"nvmetcp.bytes_per_epoch":         ratio(a.get("tgt.bytes", epochPhases...), epochs),
		"nvmetcp.vec_segments_per_epoch":  ratio(a.get("tgt.vec_segments", epochPhases...), epochs),
		"nvmetcp.writev_batch":            ratio(a.all("srv.flushed_cmds"), a.all("srv.flushes")),
		"nvmetcp.zero_copy_share":         ratio(a.all("srv.zero_copy_bytes"), a.all("srv.zero_copy_bytes")+a.all("srv.staged_bytes")),
		"nvmetcp.restaged":                a.all("srv.restaged"),
		"nvmetcp.vec_write_cmds":          ratio(a.get("srv.vec_write_cmds", "save"), saves),
		"nvmetcp.flush_cmds":              ratio(a.get("srv.flush_cmds", "save"), saves),
		"nvmetcp.flush_wait_s":            ratio(sec(a.get("srv.flush_wait_ns", "save")), saves),
		"nvmetcp.conns_aborted":           a.all("tgt.conns_aborted"),
		"blockdev.adopted_extents":        ratio(a.get("store.adopted_extents", "save"), saves),
		"blockdev.cow_clones":             ratio(a.get("store.cow_clones", "save"), saves),
		"blockdev.bytes_per_user_byte":    ratio(out.final.counters["store.allocated_bytes"], userBytes),
		"peercache.peer_hits":             ratio(a.all("pipe.peer_hits"), reads),
		"peercache.peer_fallbacks":        ratio(a.all("pipe.peer_fallbacks"), reads),
		"peercache.peer_served":           ratio(a.all("pipe.peer_served"), reads),
		"peercache.origin_bytes_per_read": ratio(a.all("pipe.origin_bytes"), reads),
		"coord.index_s":                   sec(float64(out.final.mount.IndexNanos)),
		"coord.allgather_s":               sec(float64(out.final.mount.AllgatherNanos)),
		"coord.assemble_s":                sec(float64(out.final.mount.AssembleNanos)),
		"coord.barrier_s":                 sec(float64(out.final.mount.BarrierNanos)),
		"consensus.elections":             float64(out.final.elections),
		"runtime.gc_cycles":               a.all("rt.gc"),
		"runtime.gc_pause_s":              sec(a.all("rt.pause_ns")),
		"bench.verify_s":                  verify.Seconds(),
		"trace.samples_per_s":             median(out.rates),
		"trace.wait_p50_us":               us(out.lat.P50),
		"live.wait_p99_us":                us(out.waitP99),
		"runtime.peak_heap_mib":           float64(out.peakHeap) / (1 << 20),
		"trace.spans":                     float64(out.tr.spanCount()),
		"runtime.steal_share":             out.stealShare,
		"bench.clean_share":               out.cleanShare,
	}
	if out.epochs > 0 {
		v["live.next_batch_s"] = out.nbTime.Seconds()
	}
	m := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		x, ok := v[d.name]
		if !ok {
			panic("ledger: per-layer metric " + d.name + " not computed")
		}
		m[d.name] = metricValue{x, d.unit}
	}
	if len(v) != len(perLayer) {
		panic(fmt.Sprintf("ledger: %d per-layer values computed for %d catalogued metrics", len(v), len(perLayer)))
	}
	return m
}

// describe writes the run's human-readable summary: end-to-end figures
// with their sample counts and, for a traced run, the attribution table
// and per-layer metrics grouped by layer.
func describe(w io.Writer, o options, out *outcome) {
	fmt.Fprintf(w, "%s seed %d: %d samples in %v (%d epochs, %d rounds), %d saves; data-call wait %v; set-ups %.3gs; attempted %d failed %d\n",
		o.workload, o.seed, out.units, out.window.Round(time.Millisecond), out.epochs, out.rounds, out.saves,
		out.lat, out.setupTimes, out.attempted, out.failed)
	fmt.Fprintf(w, "host: %.1f%% of the guest's CPU time stolen in the window; %.0f%% of iterations ran under the %.0f%% limit and count\n",
		100*out.stealShare, 100*out.cleanShare, 100*stealLimit)
	if !o.trace {
		return
	}
	attribution(w, out)
	m := layerMetrics(out)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tshould move")
	for _, k := range names {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", k, m[k].Value, m[k].Unit, moves[k])
	}
	tw.Flush() //nolint:errcheck // diagnostics to stderr
}

// consumerSplit splits the consumer loops' wall time into time blocked
// in the data call (NextBatch or ReadSample), verification, recycling
// and the unattributed rest. Cluster ranks run their loops concurrently,
// so their consumer time is the window times the rank count.
func consumerSplit(out *outcome) (wall, call, verify, recycle, rest time.Duration) {
	st := out.tr.stats()
	wall = out.window * time.Duration(out.ranks)
	call = out.nbTime
	verify = st["verify"].Total
	recycle = st["live.RecycleItems"].Total + st["live.Recycle"].Total
	rest = wall - call - verify - recycle
	return
}

// attribution writes the epoch attribution table: the consumer split,
// then the fetch-side and server-side stage sums of the timed phases
// against the same wall time. Fetch and server stages run on other
// goroutines, concurrently with the consumer, so their sums are shares
// of wall time, not parts of it.
func attribution(w io.Writer, out *outcome) {
	wall, call, verify, recycle, rest := consumerSplit(out)
	name := "NextBatch"
	if out.epochs == 0 {
		name = "ReadSample"
	}
	share := func(s float64) string { return fmt.Sprintf("%.1f%%", 100*ratio(s, wall.Seconds())) }
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "attribution\tseconds\tshare of consumer wall")
	fmt.Fprintf(tw, "consumer wall\t%.4f\t%s\n", wall.Seconds(), share(wall.Seconds()))
	for _, row := range []struct {
		name string
		d    time.Duration
	}{{"  " + name, call}, {"  verify", verify}, {"  recycle", recycle}, {"  unattributed", rest}} {
		fmt.Fprintf(tw, "%s\t%.4f\t%s\n", row.name, row.d.Seconds(), share(row.d.Seconds()))
	}
	for _, row := range []struct{ name, key string }{
		{"fetch prep", "pipe.prep_ns"}, {"fetch post", "pipe.post_ns"}, {"fetch poll", "pipe.poll_ns"},
		{"copy (inside NextBatch)", "pipe.copy_ns"},
		{"server qwait", "srv.qwait_ns"}, {"server service", "srv.service_ns"}, {"server flush", "srv.flush_ns"},
	} {
		s := out.acct.get(row.key, "epoch", "reads") / 1e9
		fmt.Fprintf(tw, "%s\t%.4f\t%s\n", row.name, s, share(s))
	}
	tw.Flush() //nolint:errcheck // diagnostics to stderr
	fmt.Fprintf(w, "unaccounted share of consumer wall: %.1f%%; %d spans recorded\n",
		100*ratio(rest.Seconds(), wall.Seconds()), out.tr.spanCount())
}
