package main

import (
	"time"

	"pandas/internal/consensus"
	"pandas/internal/core"
	"pandas/internal/wire"
)

const (
	simNodes    = 300
	simLoss     = 0.03
	simMinSlots = 3
)

// simDigest is what must repeat exactly when a slot is re-run from the
// same seed: deadline share, events executed and messages dropped.
type simDigest struct {
	deadline float64
	events   uint64
	dropped  int
}

func simCluster(seed int64) (*core.Cluster, error) {
	return core.NewCluster(core.ClusterConfig{
		Core:     core.DefaultConfig(),
		N:        simNodes,
		Seed:     derive(seed, "cluster", 0),
		LossRate: simLoss,
	})
}

func runSimPaper(o options) (*runResult, error) {
	cfg := core.DefaultConfig()
	c, setupS, err := setupRepeated(func() (*core.Cluster, error) { return simCluster(o.seed) }, func(*core.Cluster) {})
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]float64{}}
	timeout := consensus.SlotDuration
	comp := completions{timeoutMs: ms(timeout)}
	var slotMs []float64
	var counts nodeCounts
	var digests []simDigest
	var events uint64
	var dropped int

	runSlot := func(c *core.Cluster, slot uint64) (*core.SlotResult, simDigest, time.Duration, error) {
		before := c.Network().Engine().Executed()
		t0 := time.Now()
		r, err := c.RunSlot(slot)
		wall := time.Since(t0)
		if err != nil {
			return nil, simDigest{}, 0, err
		}
		dg := simDigest{r.DeadlineRate(cfg.Deadline), c.Network().Engine().Executed() - before, r.Dropped}
		return r, dg, wall, nil
	}

	var stopProfile func() (map[string]float64, error)
	if o.trace {
		if stopProfile, err = startProfile(o); err != nil {
			return nil, err
		}
	}
	slots, err := slotLoop(o.seconds, simMinSlots, func(slot uint64) error {
		r, dg, wall, err := runSlot(c, slot-1) // slotLoop numbers from 2; this workload has no warm-up
		if err != nil {
			return err
		}
		slotMs = append(slotMs, ms(wall))
		digests = append(digests, dg)
		events += dg.events
		dropped += dg.dropped
		for i, out := range r.Outcomes {
			res.attempted++
			if out.Sampling >= 0 {
				comp.done(ms(out.Sampling))
			} else {
				res.failed++
				comp.timedOut()
			}
			counts.add(c.Nodes()[i].Metrics(), msOrNone(out.Seed), msOrNone(out.Consolidation))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cpu map[string]float64
	if stopProfile != nil {
		if cpu, err = stopProfile(); err != nil {
			return nil, err
		}
	}

	// Output check: the first slot, re-run on a fresh cluster from the
	// same seed, must reproduce its digest exactly.
	fresh, err := simCluster(o.seed)
	if err != nil {
		return nil, err
	}
	_, again, _, err := runSlot(fresh, 1)
	if err != nil {
		return nil, err
	}
	res.check(again == digests[0], "slot 1 re-run from the same seed gave digest %+v, first run %+v", again, digests[0])

	res.check(supported(comp.n(), 0.95), "p95 rests on %d samples beyond it", beyond(comp.n(), 0.95))
	p50, _ := comp.quantile(0.5)
	p95, _ := comp.quantile(0.95)
	within := comp.within(ms(cfg.Deadline))
	m := res.metrics
	m["setup_s"] = setupS
	m["slot_ms"] = median(slotMs)
	m["complete_p50_ms"] = p50
	m["complete_p95_ms"] = p95
	m["deadline_share"] = ratio(float64(within), float64(comp.n()))
	m["peak_rss_mb"] = peakRSSMB()

	res.printf("workload sim-paper seed %d: %d simulated nodes, K=%d, metadata cells, planetary latency, %.0f%% loss, %d slots",
		o.seed, simNodes, cfg.Blob.K, 100*simLoss, slots)
	res.printf("%-22s %10.4f s", "setup_s", setupS)
	res.printf("%-22s %10.3f s    n=%d (wall time of one Cluster.RunSlot)", "sim_slot_s", median(slotMs)/1e3, len(slotMs))
	res.report = append(res.report, fmtSlots("slot_ms", slotMs))
	res.printf("%-22s %10.4f ratio %d of %d node-slots within %v of virtual time", "deadline_share", m["deadline_share"], within, comp.n(), cfg.Deadline)
	res.report = append(res.report, fmtQuantile("sample_p50_ms", &comp, 0.5), fmtQuantile("sample_p95_ms", &comp, 0.95))
	res.printf("%-22s %10.4f ratio %d of %d node-slots unsampled at the end of the %v slot", "failed_share", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, timeout)
	res.printf("%-22s %10.1f MB", "peak_rss_mb", m["peak_rss_mb"])
	for i, dg := range digests {
		res.printf("slot %d digest: deadline %.6f, %d events, %d dropped", i+1, dg.deadline, dg.events, dg.dropped)
	}
	res.printf("output check: slot 1 re-run on a fresh cluster reproduced its digest: %v", again == digests[0])

	if !o.trace {
		return res, nil
	}
	for _, k := range []string{"builder.first_send_ms", "builder.send_ms", "builder.wait_ms", "builder.datagrams", "builder.bytes",
		"transport.send_us", "transport.sends", "transport.rcvbuf_drops", "transport.loop_lag_p50_ms", "transport.loop_lag_p99_ms",
		"node.seed_handle_us", "node.query_handle_us", "node.response_handle_us", "node.timer_ms", "node.panics", "trace.overhead_pct"} {
		m[k] = 0
	}
	counts.metrics(m)
	m["simnet.events"] = ratio(float64(events), float64(slots))
	m["simnet.events_per_s"] = ratio(float64(events), mean(slotMs)*float64(slots)/1e3)
	m["simnet.dropped"] = ratio(float64(dropped), float64(slots))
	for k, v := range cpu {
		m["cpu."+k] = v
	}
	// The simulated slot has no payload bytes; the codec layers are
	// replayed at the same geometry on a seeded blob.
	data := make([]byte, cfg.Blob.BlobBytes())
	fillBlob(data, o.seed, 1)
	if err := replayLayers(res, cfg.Blob, data, [numMsgKinds][]wire.Message{}); err != nil {
		return nil, err
	}
	res.printf("simnet: %.0f events per slot, %.0f events/s", m["simnet.events"], m["simnet.events_per_s"])
	return res, nil
}

func msOrNone(d time.Duration) float64 {
	if d < 0 {
		return -1
	}
	return ms(d)
}
