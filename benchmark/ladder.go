package main

import (
	"fmt"
	"io"
)

// The layers the op time is attributed to, in the order of the table.
var layers = []string{"wire", "orb", "trading", "script", "monitor", "core"}

// runTraced produces the per-layer metrics of one workload: an untraced
// pass for the reference op time, the traced pass, the probes, and from
// the three the cost ladder
//
//	op time = sum of layer self times + net.floor + residual
//
// (README "Reading the traced table").
func runTraced(sp *spec, opts options, ref *refEcho, r *result, log io.Writer) error {
	untraced, _, err := measure(sp, opts, nil, 0.25, ref, r)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, c, err := measure(sp, opts, tr, 0.35, ref, r)
	if err != nil {
		return err
	}
	if err := tr.writeFile(opts.outDir, sp.name); err != nil {
		return err
	}
	p := &prober{ref: ref, rounds: 5, scale: opts.seconds / 20}
	if opts.segments > 0 {
		p.rounds, p.scale = 1, 0.02
	}
	pv, err := runProbes(p, opts.seed)
	if err != nil {
		return err
	}
	// The codec's cost on this workload: the frames of the first traced
	// segment, decoded and encoded again, per op.
	wireX := probeWire(p, tr.captured) / float64(sp.opsPerSeg)
	if p.err != nil {
		return p.err
	}

	l := buildLadder(sp, tr, c, pv, wireX, mean(traced.refSec))
	untracedX, tracedX := median(untraced.opX), median(traced.opX)
	l.print(log, tr, untracedX)

	opX, perOpX := l.opX, l.perOpX
	totalWrites, totalFrames, totalBytes := tr.written()
	from := fmt.Sprintf("traced pass, %d ops", tr.ops)
	probe := fmt.Sprintf("probe, median of %d batches", p.rounds)
	share := func(layer string) float64 { return l.self[layer] / opX }
	per := func(n int64) float64 { return float64(n) / l.ops }
	queries := float64(tr.queries.Load())
	perQuery := func(n float64) float64 {
		if queries == 0 {
			return 0
		}
		return n / queries
	}
	servantHits := tr.totals[kTradingServant].count + tr.totals[kMonServant].count + tr.totals[kAppServant].count

	r.add("wire.self_share", share("wire"), "1", from)
	r.add("wire.bytes_per_op", per(totalBytes), "B", from)
	r.add("wire.frames_per_op", per(totalFrames), "1", from)
	r.add("orb.self_share", share("orb"), "1", from)
	r.add("orb.writes_per_op", per(totalWrites), "1", from)
	r.add("orb.reads_per_op", per(tr.reads.Load()), "1", from)
	r.add("orb.batch_fill", float64(totalFrames)/float64(max(totalWrites, 1)), "1", from)
	r.add("orb.roundtrips_per_op", per(servantHits), "1", from)
	r.add("orb.shed_per_op", float64(c.shed)/l.ops, "1", from)
	r.add("orb.collocated_x", pv.collocated, "ref_rtt", probe)
	r.add("orb.inproc_x", pv.inproc, "ref_rtt", probe)
	r.add("orb.tcp_x", pv.tcp, "ref_rtt", probe)
	r.add("net.floor_share", l.floor/opX, "1", from)
	r.add("trading.self_share", share("trading"), "1", from)
	r.add("trading.query_direct_x", pv.queryDirect, "ref_rtt", probe)
	r.add("trading.remote_share", (pv.queryRemote-pv.queryDirect)/pv.queryRemote, "1", probe)
	r.add("trading.scan_ratio", float64(c.typeSize)/float64(max(c.offers, 1)), "1", "world")
	r.add("trading.candidates_per_query", perQuery(float64(tr.totals[kResolve].count)/2), "1", from)
	r.add("trading.resolves_per_query", perQuery(float64(tr.totals[kResolve].count)), "1", from)
	r.add("trading.resolve_share", perOpX(tr.totals[kResolve].durNs)/opX, "1", from)
	r.add("trading.export_direct_x", pv.export, "ref_rtt", probe)
	r.add("trading.withdraw_direct_x", pv.withdraw, "ref_rtt", probe)
	r.add("trading.modify_direct_x", pv.modify, "ref_rtt", probe)
	r.add("trading.renew_direct_x", pv.renew, "ref_rtt", probe)
	r.add("trading.parse_x", pv.parse, "ref_rtt", probe)
	r.add("shard.route_x", pv.route/pv.queryDirect, "1", probe)
	r.add("script.self_share", share("script"), "1", from)
	r.add("script.calls_per_op", per(c.aspects+c.predicates+c.eventsHandled), "1", from)
	r.add("script.predicate_x", pv.predicate, "ref_rtt", probe)
	r.add("script.aspect_x", pv.aspect, "ref_rtt", probe)
	r.add("script.strategy_x", pv.strategy, "ref_rtt", probe)
	r.add("script.compile_x", pv.compile, "ref_rtt", probe)
	r.add("monitor.self_share", share("monitor"), "1", from)
	r.add("monitor.detect1_x", pv.detect1, "ref_rtt", probe)
	r.add("monitor.detect64_x", pv.detect64, "ref_rtt", probe)
	r.add("monitor.push_delay_x", pv.pushDelay, "ref_rtt", probe)
	r.add("monitor.events_per_eval", float64(c.fired)/float64(max(c.predicates, 1)), "1", from)
	r.add("core.self_share", share("core"), "1", from)
	r.add("core.proxy_overhead_x", pv.proxyOverhead, "ref_rtt", probe)
	r.add("core.bind_x", pv.bind, "ref_rtt", probe)
	r.add("core.invokes_per_cycle", per(c.invokes), "1", from)
	r.add("core.selections_per_cycle", per(c.selections), "1", from)
	r.add("core.switch_ratio", float64(c.switches)/float64(max(c.eventsHandled, 1)), "1", from)
	r.add("bench.residual_share", l.residual()/opX, "1", from)
	r.add("bench.trace_overhead", tracedX/untracedX-1, "1", "traced over untraced op_x")
	r.add("bench.pipe_rtt_x", pv.pipeRTT, "ref_rtt", probe)
	r.add("bench.op_us", median(untraced.opSec)*1e6, "us", "untraced pass")
	r.add("bench.ops_per_s", 1/median(untraced.opSec), "1/s", "untraced pass")
	r.add("bench.ref_rtt_us", median(untraced.refSec)*1e6, "us", "untraced pass")
	r.add("bench.lat_p95_x", median(untraced.p95X), "ref_rtt", "untraced pass")
	r.add("bench.lat_p99_x", median(untraced.p99X), "ref_rtt", "untraced pass")
	return nil
}

// ladder is one workload's attribution, in ref_rtt per op.
type ladder struct {
	ops    float64 // traced ops
	refSec float64 // mean ref_rtt of the traced pass
	opX    float64 // traced op time
	self   map[string]float64
	floor  float64
}

func (l *ladder) perOpX(ns int64) float64 { return float64(ns) / 1e9 / l.ops / l.refSec }

func (l *ladder) residual() float64 {
	rest := l.opX - l.floor
	for _, name := range layers {
		rest -= l.self[name]
	}
	return rest
}

// buildLadder attributes the traced op time. Each span's self time goes to
// the layer of the function it wraps; the transport, codec and script
// shares are then carved out of the spans that contain them.
func buildLadder(sp *spec, tr *tracer, c counters, pv probeValues, wireX, refSec float64) *ladder {
	l := &ladder{ops: float64(tr.ops), refSec: refSec, self: map[string]float64{}}
	l.opX = l.perOpX(tr.totals[kOp].durNs)

	// Transport model. One write is half a round trip of the transport in
	// use; a synchronous ORB round trip costs, beyond that and the codec,
	// what the E4 ladder measured for this transport.
	raw, rung := 1.0, pv.tcp
	if sp.inproc {
		raw, rung = pv.pipeRTT, pv.inproc
	}
	orbPerRT := rung - raw - pv.wireEcho
	_, _, totalBytes := tr.written()
	for k, t := range tr.totals {
		if t.count == 0 && t.writes == 0 {
			continue
		}
		layer := kindInfo[k].layer
		rest := l.perOpX(t.selfNs)
		if t.writes > 0 {
			rts := float64(t.writes) / 2 / l.ops
			f := rts * raw
			wr := wireX * float64(t.bytes) / float64(totalBytes)
			l.floor += f
			l.self["wire"] += wr
			rest -= f + wr
			if layer != "orb" { // a caller of the ORB: take the ORB's share out of its span
				l.self["orb"] += rts * orbPerRT
				rest -= rts * orbPerRT
			}
		}
		l.self[layer] += rest
	}
	// Script runs inside the monitors (aspects, predicates) and inside
	// SmartProxy.Adapt (the strategy); no public call separates it, so its
	// share is activations times the probed cost of one.
	inMonitor := (float64(c.aspects)*pv.aspect + float64(c.predicates)*pv.predicate) / l.ops
	inCore := float64(c.eventsHandled) * pv.strategy / l.ops
	l.self["script"] += inMonitor + inCore
	l.self["monitor"] -= inMonitor
	l.self["core"] -= inCore
	return l
}

func (l *ladder) print(log io.Writer, tr *tracer, untracedX float64) {
	fmt.Fprintf(log, "traced cost ladder: one op = %.4g ref_rtt traced (%.4g untraced)\n", l.opX, untracedX)
	fmt.Fprintf(log, "  %-12s %10s %10s\n", "layer", "ref_rtt/op", "share")
	for _, name := range layers {
		fmt.Fprintf(log, "  %-12s %10.4f %10.4f\n", name, l.self[name], l.self[name]/l.opX)
	}
	fmt.Fprintf(log, "  %-12s %10.4f %10.4f\n", "net.floor", l.floor, l.floor/l.opX)
	fmt.Fprintf(log, "  %-12s %10.4f %10.4f\n", "residual", l.residual(), l.residual()/l.opX)
	fmt.Fprintf(log, "  %-12s %10.4f %10.4f\n", "sum", l.opX, 1.0)
	fmt.Fprintf(log, "  spans, self time per op in ref_rtt x spans per op:")
	for k, t := range tr.totals {
		if t.count > 0 {
			fmt.Fprintf(log, "  %s %.4f x%.3g;", kindInfo[k].name, l.perOpX(t.selfNs), float64(t.count)/l.ops)
		}
	}
	fmt.Fprintln(log)
}
