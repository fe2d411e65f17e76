package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/trading"
	"autoadapt/internal/trading/shard"
	"autoadapt/internal/wire"
)

// Probes time one public function of one layer in isolation, with inputs
// shaped like the workloads'. They are the rungs of the cost ladder that
// spans cannot separate from outside: what a round trip costs per
// transport, what the codec costs on the frames a workload really sent,
// what one script activation costs. Every probe is timed between two
// reference bursts and reported in ref_rtt like the end-to-end timings.

type prober struct {
	ref    *refEcho
	rounds int     // timed batches per probe; the median is reported
	scale  float64 // batch size multiplier, below 1 for the smoke test
	err    error   // first failure; later probes are skipped
}

// x runs batches of n iterations of fn and returns the median time per
// iteration in ref_rtt. fn reports the time to count, so that it can leave
// out its own resetting between iterations.
func (p *prober) x(n int, fn func(n int) (time.Duration, error)) float64 {
	if p.err != nil {
		return 0
	}
	n = max(int(float64(n)*p.scale), 2)
	if _, p.err = fn(n); p.err != nil { // warm-up
		return 0
	}
	var before float64
	if before, p.err = p.ref.burst(); p.err != nil {
		return 0
	}
	vals := make([]float64, 0, p.rounds)
	for r := 0; r < p.rounds; r++ {
		d, err := fn(n)
		after, rerr := p.ref.burst()
		if err != nil || rerr != nil {
			p.err = fmt.Errorf("probe: %v %v", err, rerr)
			return 0
		}
		vals = append(vals, d.Seconds()/float64(n)/((before+after)/2))
		before = after
	}
	return median(vals)
}

// loop adapts a plain iteration body to x.
func loop(body func() error) func(int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := body(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
}

// probeValues holds every probe's result, in ref_rtt unless named otherwise.
type probeValues struct {
	pipeRTT                              float64 // raw 32-byte net.Pipe round trip
	collocated, inproc, tcp              float64 // orb.Client.Invoke echo per transport
	proxyOverhead, bind                  float64
	wireEcho                             float64 // codec cost of the two frames of one echo round trip
	queryDirect, queryRemote, route      float64
	export, withdraw, modify, renew      float64
	parse                                float64
	predicate, aspect, strategy, compile float64
	detect1, detect64, pushDelay         float64
}

func runProbes(p *prober, seed int64) (probeValues, error) {
	var v probeValues
	probeORB(p, &v)
	probeBind(p, &v)
	probeTrading(p, seed, &v)
	probeScript(p, &v)
	probeMonitor(p, &v)
	return v, p.err
}

// probeORB is E4's ladder: the same echo as a raw pipe round trip, as a
// collocated call, over the in-process transport and over TCP loopback,
// and through a smart proxy on that TCP connection.
func probeORB(p *prober, v *probeValues) {
	var c cleanup
	defer c.close()

	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [refBytes]byte
		for {
			if _, err := io.ReadFull(b, buf[:]); err != nil {
				return
			}
			if _, err := b.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	c.add(func() { _ = a.Close(); _ = b.Close(); <-done })
	var buf [refBytes]byte
	v.pipeRTT = p.x(4000, loop(func() error {
		if _, err := a.Write(buf[:]); err != nil {
			return err
		}
		_, err := io.ReadFull(a, buf[:])
		return err
	}))

	echoOn := func(nw orb.Network, addr string, local bool) (*orb.Client, wire.ObjRef) {
		srv, err := c.newServer(nw, addr, orb.ServerOptions{})
		if err != nil {
			p.err = err
			return nil, wire.ObjRef{}
		}
		client := c.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})
		if local {
			client.RegisterLocal(srv)
		}
		return client, srv.Register("echo", "", echoServant())
	}
	invoke := func(client *orb.Client, ref wire.ObjRef) func() error {
		return func() error {
			_, err := client.Invoke(bg, ref, "echo", wire.Int(42))
			return err
		}
	}
	inproc := orb.NewInprocNetwork()
	if client, ref := echoOn(inproc, "probe-local", true); p.err == nil {
		v.collocated = p.x(20000, loop(invoke(client, ref)))
	}
	if client, ref := echoOn(inproc, "probe-inproc", false); p.err == nil {
		v.inproc = p.x(3000, loop(invoke(client, ref)))
	}
	client, ref := echoOn(orb.TCPNetwork{}, loopback, false)
	if p.err != nil {
		return
	}
	v.tcp = p.x(2000, loop(invoke(client, ref)))
	sp, err := core.New(core.Options{Client: client})
	if err != nil {
		p.err = err
		return
	}
	c.add(sp.Close)
	if p.err = sp.BindTo(bg, trading.QueryResult{Offer: trading.Offer{ID: "offer-1", Ref: ref}}); p.err != nil {
		return
	}
	viaProxy := p.x(2000, loop(func() error {
		_, err := sp.Invoke(bg, "echo", wire.Int(42))
		return err
	}))
	v.proxyOverhead = viaProxy - v.tcp

	req, _ := wire.AppendRequest(nil, &wire.Request{ID: 1, ObjectKey: "echo", Operation: "echo", Args: []wire.Value{wire.Int(42)}}, false)
	rep, _ := wire.AppendReply(nil, &wire.Reply{ID: 1, Results: []wire.Value{wire.Int(42)}})
	v.wireEcho = probeWire(p, [][]byte{req, rep})
}

// probeWire returns the codec cost, in ref_rtt, of the given frame
// payloads: each decoded once and encoded once, as on the wire.
func probeWire(p *prober, frames [][]byte) float64 {
	if len(frames) == 0 {
		return 0
	}
	var buf []byte
	reps := max(20000/len(frames), 1)
	return p.x(reps, loop(func() error {
		for _, f := range frames {
			m, err := wire.DecodeMessage(f)
			if err != nil {
				return err
			}
			switch m.Type {
			case wire.MsgRequest, wire.MsgOneway:
				buf, err = wire.AppendRequest(buf[:0], m.Req, m.Type == wire.MsgOneway)
			case wire.MsgReply, wire.MsgErrorReply:
				buf, err = wire.AppendReply(buf[:0], m.Rep)
			case wire.MsgSubscribe:
				buf, err = wire.AppendSubscribe(buf[:0], m.Sub)
			case wire.MsgEvent:
				buf, err = wire.AppendEvent(buf[:0], m.Event)
			case wire.MsgUnsubscribe:
				buf = wire.AppendUnsubscribe(buf[:0], m.UnsubID)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}))
}

// monitorHost serves a load monitor on nw under addr.
func monitorHost(c *cleanup, nw orb.Network, addr string) (*monitor.Monitor, wire.ObjRef, error) {
	srv, err := c.newServer(nw, addr, orb.ServerOptions{})
	if err != nil {
		return nil, wire.ObjRef{}, err
	}
	m, err := newLoadMonitor(c)
	if err != nil {
		return nil, wire.ObjRef{}, err
	}
	return m, srv.Register("monitor/LoadAvg", "", monitor.NewServant(m)), nil
}

func watchedOffer(id string, mon wire.ObjRef) trading.QueryResult {
	return trading.QueryResult{Offer: trading.Offer{ID: id, ServiceType: adaptType,
		Ref:   wire.ObjRef{Endpoint: mon.Endpoint, Key: "service"},
		Props: map[string]trading.PropValue{"LoadAvg": {Dynamic: mon, Aspect: monitor.Load1Aspect}}}}
}

// probeBind times SmartProxy.BindTo with one watch, alternating between two
// hosts: subscribe on the new monitor, drop the old subscription.
func probeBind(p *prober, v *probeValues) {
	if p.err != nil {
		return
	}
	var c cleanup
	defer c.close()
	nw := orb.NewInprocNetwork()
	var offers [2]trading.QueryResult
	for i := range offers {
		_, ref, err := monitorHost(&c, nw, fmt.Sprintf("bind-%d", i))
		if err != nil {
			p.err = err
			return
		}
		offers[i] = watchedOffer(fmt.Sprintf("offer-%d", i), ref)
	}
	client := c.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})
	sp, err := core.New(core.Options{Client: client, ServiceType: adaptType, Watches: loadWatch})
	if err != nil {
		p.err = err
		return
	}
	c.add(sp.Close)
	i := 0
	v.bind = p.x(1000, loop(func() error {
		i++
		return sp.BindTo(bg, offers[i%2])
	}))
}

// probeTrading times the trader's own operations in-process on the
// 10000-offer world, the same queries through a TCP Lookup and through a
// one-shard router, and a cold constraint parse.
func probeTrading(p *prober, seed int64, v *probeValues) {
	if p.err != nil {
		return
	}
	w, err := buildTrader(seed, nil, true)
	if err != nil {
		p.err = err
		return
	}
	defer w.close()
	s := newStream(seed + 1)
	query := func(d trading.Directory) func() error {
		return func() error {
			t := s.intn(traderTypes)
			rs, err := d.Query(bg, w.types[t], queryCons, queryPref, 3)
			if err != nil || len(rs) != 3 {
				return fmt.Errorf("probe query: %d rows, %v", len(rs), err)
			}
			return nil
		}
	}
	direct := trading.Local{T: w.trader}
	v.queryDirect = p.x(60, loop(query(direct)))
	v.queryRemote = p.x(60, loop(query(w.dir)))
	router, err := shard.NewRouter(shard.Options{Shards: []trading.Directory{direct}})
	if err != nil {
		p.err = err
		return
	}
	v.route = p.x(60, loop(query(router)))

	pick := func() (int, *slot) {
		t := s.intn(traderTypes)
		return t, &w.slots[t][s.intn(traderPerType)]
	}
	v.renew = p.x(20000, loop(func() error {
		_, sl := pick()
		return w.trader.Renew(sl.id)
	}))
	v.modify = p.x(10000, loop(func() error {
		_, sl := pick()
		return w.trader.Modify(sl.id, sl.props())
	}))
	// Withdraw and Export come as a pair so the world keeps its size; each
	// probe counts only its half.
	pair := func(countWithdraw bool) func(int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			var counted time.Duration
			for i := 0; i < n; i++ {
				t, sl := pick()
				props := sl.props()
				t0 := time.Now()
				err := w.trader.Withdraw(sl.id)
				t1 := time.Now()
				if err != nil {
					return 0, err
				}
				sl.id, err = w.trader.Export(w.types[t], sl.svc, props)
				t2 := time.Now()
				if err != nil {
					return 0, err
				}
				if countWithdraw {
					counted += t1.Sub(t0)
				} else {
					counted += t2.Sub(t1)
				}
			}
			return counted, nil
		}
	}
	v.withdraw = p.x(10000, pair(true))
	v.export = p.x(10000, pair(false))
	v.parse = p.x(5000, loop(func() error {
		_, err := trading.ParseConstraint(queryCons)
		return err
	}))
}

// probeScript times one activation of each shipped script on a bare
// interpreter, host calls stubbed, and a cold compile of the strategy.
func probeScript(p *prober, v *probeValues) {
	if p.err != nil {
		return
	}
	in := script.New(script.Options{})
	value := script.FromWire(hotSample)
	mon := script.NewTable()
	mon.SetString("getAspectValue", script.Func("getAspectValue", func(*script.Interp, []script.Value) ([]script.Value, error) {
		return []script.Value{script.String("yes")}, nil
	}))
	mon.SetString("getValue", script.Func("getValue", func(*script.Interp, []script.Value) ([]script.Value, error) {
		return []script.Value{value}, nil
	}))
	self := script.NewTable()
	self.SetString("_loadavgmon", script.TableVal(mon))
	self.SetString("_select", script.Func("_select", func(*script.Interp, []script.Value) ([]script.Value, error) {
		return []script.Value{script.Bool(true)}, nil
	}))
	call := func(src string, args ...script.Value) func() error {
		fn, err := in.CompileFunction("probe", src)
		if err != nil && p.err == nil {
			p.err = err
		}
		return func() error {
			_, err := in.Call(fn, args)
			return err
		}
	}
	predicate := call(monitor.LoadIncreasePredicateSrc(adaptLimit), script.Nil(), value, script.TableVal(mon))
	aspect := call(monitor.IncreasingAspectSrc, script.TableVal(script.NewTable()), value, script.TableVal(mon))
	strategy := call(adaptStrategy, script.TableVal(self))
	if p.err != nil {
		return
	}
	v.predicate = p.x(20000, loop(predicate))
	v.aspect = p.x(20000, loop(aspect))
	v.strategy = p.x(10000, loop(strategy))
	cold := script.New(script.Options{CacheSize: -1})
	v.compile = p.x(500, loop(func() error {
		_, err := cold.CompileFunction("probe", adaptStrategy)
		return err
	}))
}

type discardSink struct{}

func (discardSink) Push(...wire.Value) error { return nil }

// probeMonitor times event detection in SetValue with 1 and with 64 push
// observers whose predicate does not fire, and the push path end to end:
// from a hot sample to the event being queued at a subscribed smart proxy.
func probeMonitor(p *prober, v *probeValues) {
	if p.err != nil {
		return
	}
	var c cleanup
	defer c.close()
	nw := orb.NewInprocNetwork()
	cool := loadTriple(10)
	detect := func(observers int) float64 {
		m, err := newLoadMonitor(&c)
		for i := 0; i < observers && err == nil; i++ {
			_, err = m.AttachPushObserver(monitor.LoadIncreaseEvent, monitor.LoadIncreasePredicateSrc(adaptLimit), discardSink{})
		}
		if err != nil {
			p.err = err
			return 0
		}
		return p.x(20000/(observers+2), loop(func() error { return m.SetValue(cool) }))
	}
	v.detect1 = detect(1)
	v.detect64 = detect(64)
	if p.err != nil {
		return
	}

	m, ref, err := monitorHost(&c, nw, "push")
	if err != nil {
		p.err = err
		return
	}
	client := c.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})
	sp, err := core.New(core.Options{Client: client, ServiceType: adaptType, Watches: loadWatch})
	if err != nil {
		p.err = err
		return
	}
	c.add(sp.Close)
	if p.err = sp.BindTo(bg, watchedOffer("offer-push", ref)); p.err != nil {
		return
	}
	v.pushDelay = p.x(2000, func(n int) (time.Duration, error) {
		var counted time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := m.SetValue(hotSample); err != nil {
				return 0, err
			}
			for spin := 0; len(sp.PendingEvents()) == 0; spin++ {
				if spin > 1<<20 {
					return 0, fmt.Errorf("probe: pushed event never arrived")
				}
				runtime.Gosched()
			}
			counted += time.Since(t0)
			_ = sp.Adapt(bg) // drains the queue; no strategy is installed
		}
		return counted, nil
	})
}
