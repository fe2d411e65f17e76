package autoadapt

// End-to-end test of the command-line tools as real processes: a trader
// daemon, two agent daemons (one with an AdaptScript configuration file),
// and adaptctl as the operator's client. This is the multi-process
// deployment from README.md, verified.

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startDaemon launches bin and waits until ready() extracts what the test
// needs from its stdout.
func startDaemon(t *testing.T, bin string, args []string, ready func(line string) bool) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	done := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if ready(sc.Text()) {
				close(done)
				// Keep draining so the child never blocks on stdout.
				for sc.Scan() {
				}
				return
			}
		}
	}()
	select {
	case <-done:
		return cmd
	case <-time.After(60 * time.Second):
		t.Fatalf("%s never became ready", bin)
		return nil
	}
}

func TestCLIDeploymentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-process e2e")
	}
	dir := t.TempDir()
	traderBin := buildTool(t, dir, "trader")
	agentBin := buildTool(t, dir, "agentd")
	ctlBin := buildTool(t, dir, "adaptctl")

	// 1. Trader on an ephemeral port; parse the endpoint it prints.
	var traderEndpoint string
	startDaemon(t, traderBin, []string{"-listen", "127.0.0.1:0", "-type", "LoadShared"},
		func(line string) bool {
			if strings.Contains(line, "endpoint:") {
				fields := strings.Fields(line)
				traderEndpoint = fields[len(fields)-1]
			}
			return strings.Contains(line, "types:")
		})
	if traderEndpoint == "" {
		t.Fatal("trader endpoint not captured")
	}
	traderRef := traderEndpoint + "/Trader"

	// 2. Two agents, one idle, one busy; the busy one carries a config
	// script that adds a Region property.
	cfgPath := filepath.Join(dir, "agent.adapt")
	if err := os.WriteFile(cfgPath, []byte(`
		log("configured from file")
		setprop("Region", "lab")
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, agentBin, []string{
		"-listen", "127.0.0.1:0", "-trader", traderRef,
		"-name", "host-idle", "-load", "sim:0.2", "-period", "50ms",
	}, func(line string) bool { return strings.Contains(line, "offer:") })
	startDaemon(t, agentBin, []string{
		"-listen", "127.0.0.1:0", "-trader", traderRef,
		"-name", "host-busy", "-load", "sim:5.0", "-period", "50ms",
		"-config", cfgPath,
	}, func(line string) bool { return strings.Contains(line, "offer:") })

	runCtl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-trader", traderRef}, args...)
		out, err := exec.Command(ctlBin, full...).CombinedOutput()
		if err != nil {
			t.Fatalf("adaptctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// 3. adaptctl types / query.
	if out := runCtl("types"); !strings.Contains(out, "LoadShared") {
		t.Fatalf("types output: %q", out)
	}
	out := runCtl("query", "LoadShared", "LoadAvg < 1", "min LoadAvg")
	if !strings.Contains(out, "host-idle") || strings.Contains(out, "host-busy") {
		t.Fatalf("constrained query should match only the idle host:\n%s", out)
	}
	out = runCtl("query", "LoadShared", "Region == 'lab'")
	if !strings.Contains(out, "host-busy") {
		t.Fatalf("script-configured Region property not exported:\n%s", out)
	}

	// 4. Use the library against the live daemons: find the idle service
	// and invoke it, then inspect its monitor remotely.
	ref, err := wire.ParseObjRef(traderRef)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := Connect(TCP(), ref, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	rs, err := platform.Lookup.Query(context.Background(), "LoadShared", "LoadAvg < 1", "min LoadAvg", 1)
	if err != nil || len(rs) != 1 {
		t.Fatalf("library query against daemons: %v, %v", rs, err)
	}
	reply, err := platform.Client.Invoke(context.Background(), rs[0].Offer.Ref, "hello")
	if err != nil || !strings.Contains(reply[0].Str(), "host-idle") {
		t.Fatalf("invoke against agentd: %v, %v", reply, err)
	}
	monRef, ok := rs[0].Offer.MonitorFor("LoadAvg")
	if !ok {
		t.Fatal("offer lacks monitor ref")
	}
	// adaptctl monitor inspection.
	out = runCtl("monitor", monRef.String())
	if !strings.Contains(out, "Increasing") {
		t.Fatalf("monitor inspection:\n%s", out)
	}
	// Ship a new aspect into the running daemon with adaptctl, then read it.
	runCtl("define", monRef.String(), "Load5", "function(self, v, m) return v[2] end")
	deadline := time.Now().Add(10 * time.Second)
	for {
		out = runCtl("aspect", monRef.String(), "Load5")
		if strings.TrimSpace(out) == "0.2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shipped aspect never computed: %q", out)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// adaptctl invoke (DII from the shell).
	out = runCtl("invoke", rs[0].Offer.Ref.String(), "hello")
	if !strings.Contains(out, "host-idle") {
		t.Fatalf("adaptctl invoke: %q", out)
	}
}

// TestCLIShardedTrader runs the trader daemon in sharded mode and drives
// it with agentd and adaptctl: exports and queries route through the
// shard servant transparently, and `adaptctl shards` renders the
// placement.
func TestCLIShardedTrader(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-process e2e")
	}
	dir := t.TempDir()
	traderBin := buildTool(t, dir, "trader")
	agentBin := buildTool(t, dir, "agentd")
	ctlBin := buildTool(t, dir, "adaptctl")

	var traderEndpoint string
	startDaemon(t, traderBin, []string{
		"-listen", "127.0.0.1:0", "-type", "LoadShared",
		"-shards", "3", "-lease-ttl", "30s",
	}, func(line string) bool {
		if strings.Contains(line, "endpoint:") {
			fields := strings.Fields(line)
			traderEndpoint = fields[len(fields)-1]
		}
		return strings.Contains(line, "shards:")
	})
	if traderEndpoint == "" {
		t.Fatal("trader endpoint not captured")
	}
	traderRef := traderEndpoint + "/Trader"

	startDaemon(t, agentBin, []string{
		"-listen", "127.0.0.1:0", "-trader", traderRef,
		"-name", "host-a", "-load", "sim:0.2", "-period", "50ms",
		"-lease-ttl", "30s",
	}, func(line string) bool { return strings.Contains(line, "offer:") })

	runCtl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-trader", traderRef}, args...)
		out, err := exec.Command(ctlBin, full...).CombinedOutput()
		if err != nil {
			t.Fatalf("adaptctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	if out := runCtl("types"); !strings.Contains(out, "LoadShared") {
		t.Fatalf("types against sharded trader: %q", out)
	}
	out := runCtl("query", "LoadShared", "LoadAvg < 1")
	if !strings.Contains(out, "host-a") {
		t.Fatalf("query against sharded trader:\n%s", out)
	}
	out = runCtl("shards")
	if !strings.Contains(out, "shard0") || !strings.Contains(out, "shard2") {
		t.Fatalf("shards output lacks shard names:\n%s", out)
	}
	if !strings.Contains(out, "owns: LoadShared") {
		t.Fatalf("shards output lacks type placement:\n%s", out)
	}
	if !strings.Contains(out, "router:") || !strings.Contains(out, "probeFails=0") {
		t.Fatalf("shards output lacks counters:\n%s", out)
	}
}
