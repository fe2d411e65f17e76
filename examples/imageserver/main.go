// Imageserver: the paper's second §V validation — the QuO example
// application, in which "the client requests images from the server and
// displays them on the screen". The photographs from the QuO distribution
// are not redistributable, so the servers generate deterministic PGM
// portraits procedurally (DESIGN.md §2.4); what matters is the paper's
// point: "Because the reconfiguration facilities are transparent to the
// applications' functional behavior, we could use the same adaptation code
// we used in the HelloWorld application."
//
// And indeed: the Watch, predicate, and strategy below are byte-for-byte
// the ones quickstart uses — only the functional interface (getImage vs
// hello) differs.
//
// Run:
//
//	go run ./examples/imageserver
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"autoadapt"
	"autoadapt/internal/monitor"
	"autoadapt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imageserver:", err)
		os.Exit(1)
	}
}

// renderPGM draws a deterministic 64x64 grayscale "portrait": concentric
// rings whose phase depends on the frame number and serving host, so the
// client can tell both apart.
func renderPGM(host int, frame int) []byte {
	const n = 64
	img := make([]byte, 0, n*n+32)
	img = append(img, []byte(fmt.Sprintf("P5 %d %d 255\n", n, n))...)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx, dy := x-n/2, y-n/2
			r := dx*dx + dy*dy
			v := byte((r/8 + frame*16 + host*64) % 256)
			img = append(img, v)
		}
	}
	return img
}

type dial struct{ v atomic.Value }

func newDial(x float64) *dial { d := &dial{}; d.v.Store(x); return d }
func (d *dial) set(x float64) { d.v.Store(x) }
func (d *dial) LoadAvg() (float64, float64, float64, error) {
	return d.v.Load().(float64), 0.4, 0.4, nil
}

// adaptationPolicy is the exact policy quickstart uses; the paper's claim
// is that it transfers unchanged across applications.
func adaptationPolicy() (constraint string, watch autoadapt.Watch, strategy autoadapt.Strategy) {
	constraint = "LoadAvg < 1 and LoadAvgIncreasing == no"
	watch = autoadapt.Watch{
		Prop:      "LoadAvg",
		Event:     monitor.LoadIncreaseEvent,
		Predicate: monitor.LoadIncreasePredicateSrc(1),
	}
	strategy = func(ctx context.Context, p *autoadapt.SmartProxy) error {
		ok, err := p.Select(ctx, constraint)
		if err == nil && ok {
			ref, _ := p.Current()
			fmt.Println("  [adaptation] image service moved to", ref)
		}
		return err
	}
	return constraint, watch, strategy
}

func run() error {
	ctx := context.Background()
	network := autoadapt.NewInprocNetwork()

	trader, err := autoadapt.StartTrader(autoadapt.TraderOptions{
		Network: network,
		Address: "trader",
		Types:   []autoadapt.ServiceType{{Name: "ImageService", Interface: "ImageServer"}},
	})
	if err != nil {
		return err
	}
	defer trader.Close()

	platform, err := autoadapt.Connect(network, trader.Ref)
	if err != nil {
		return err
	}
	defer platform.Close()

	dials := []*dial{newDial(0.2), newDial(0.3)}
	for i, d := range dials {
		hostIdx := i
		ag, err := autoadapt.StartAgent(ctx, autoadapt.AgentOptions{
			Network:     network,
			Address:     fmt.Sprintf("imghost-%d", i+1),
			Lookup:      platform.Lookup,
			ServiceType: "ImageService",
			Servant: autoadapt.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
				if op != "getImage" {
					return nil, fmt.Errorf("no such operation %q", op)
				}
				frame := int(args[0].Num())
				return []wire.Value{
					wire.Bytes(renderPGM(hostIdx, frame)),
					wire.String(fmt.Sprintf("imghost-%d", hostIdx+1)),
				}, nil
			}),
			LoadSource:    d,
			MonitorPeriod: 40 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer ag.Close(ctx)
	}

	constraint, watch, strategy := adaptationPolicy()
	proxy, err := platform.NewSmartProxy(autoadapt.ProxyOptions{
		ServiceType:      "ImageService",
		Constraint:       constraint,
		Preference:       "min LoadAvg",
		FallbackSortOnly: true,
		Watches:          []autoadapt.Watch{watch},
	})
	if err != nil {
		return err
	}
	defer proxy.Close()
	proxy.SetStrategy(monitor.LoadIncreaseEvent, strategy)
	if err := proxy.Bind(ctx); err != nil {
		return err
	}

	outDir, err := os.MkdirTemp("", "autoadapt-images-")
	if err != nil {
		return err
	}
	fmt.Println("fetching 8 frames; images land in", outDir)

	for frame := 0; frame < 8; frame++ {
		if frame == 3 {
			fmt.Println("  [load] imghost-1 becomes busy (load 4.0)")
			dials[0].set(4.0)
		}
		rs, err := proxy.Invoke(ctx, "getImage", wire.Int(frame))
		if err != nil {
			return err
		}
		img, _ := rs[0].AsBytes()
		servedBy := rs[1].Str()
		path := filepath.Join(outDir, fmt.Sprintf("frame-%02d.pgm", frame))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			return err
		}
		fmt.Printf("frame %d: %4d bytes from %s\n", frame, len(img), servedBy)
		time.Sleep(50 * time.Millisecond)
	}

	st := proxy.Stats()
	fmt.Printf("\ndone: %d frames, %d switch(es) — same adaptation code as quickstart\n",
		st.Invocations, st.Switches)
	if st.Switches == 0 {
		return fmt.Errorf("expected the image service to migrate")
	}
	return nil
}
