// Command adaptctl is the dynamic client: the LuaCorba-style interactive
// access to a running deployment. It performs stub-free (DII-style)
// invocations, trader queries, and monitor inspection from the shell.
//
// Usage:
//
//	adaptctl -trader 'tcp|127.0.0.1:9050/Trader' types
//	adaptctl -trader ... query LoadShared "LoadAvg < 2" "min LoadAvg"
//	adaptctl -trader ... shards               # sharded-trader placement/stats
//	adaptctl -trader ... metrics              # trader-side metrics exposition
//	adaptctl -trader ... renew offer-3        # extend an offer's lease
//	adaptctl -breaker-threshold 3 invoke ...  # fail fast on dead endpoints
//	adaptctl invoke 'tcp|127.0.0.1:41234/service' hello
//	adaptctl invoke 'tcp|host:port/service' work 0.25
//	adaptctl monitor 'tcp|host:port/monitor/LoadAvg'
//	adaptctl aspect  'tcp|host:port/monitor/LoadAvg' Increasing
//	adaptctl aspect  'tcp|host:port/monitor/LoadAvg' Load1 Increasing   # one getAspectValues call, one sample
//	adaptctl define  'tcp|host:port/monitor/LoadAvg' Load15 'function(self,v,m) return v[3] end'
//
// Arguments to invoke are parsed as numbers when possible, as booleans for
// true/false, and as strings otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptctl:", err)
		os.Exit(1)
	}
}

func run() error {
	traderRef := flag.String("trader", "tcp|127.0.0.1:9050/Trader", "trader object reference")
	timeout := flag.Duration("timeout", 10*time.Second, "per-invocation deadline (0 disables)")
	retries := flag.Int("retries", 3, "max invocation attempts on connection faults")
	backoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base retry backoff (doubles per attempt)")
	brkThreshold := flag.Int("breaker-threshold", 0, "consecutive endpoint failures that open the circuit breaker (0 disables)")
	brkCooldown := flag.Duration("breaker-cooldown", time.Second, "how long an open circuit waits before probing the endpoint again")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: adaptctl [flags] types|query|renew|shards|metrics|invoke|monitor|aspect|define <args>")
	}

	client := orb.NewClientOpts(orb.ClientOptions{
		Networks: []orb.Network{orb.TCPNetwork{}},
		Retry: orb.RetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *backoff,
			Jitter:      0.2,
		},
		Breaker: orb.BreakerPolicy{
			Threshold: *brkThreshold,
			Cooldown:  *brkCooldown,
		},
		InvokeTimeout: *timeout,
	})
	defer client.Close()
	ctx := context.Background()

	switch args[0] {
	case "types":
		ref, err := wire.ParseObjRef(*traderRef)
		if err != nil {
			return err
		}
		rs, err := client.Invoke(ctx, ref, "listTypes")
		if err != nil {
			return err
		}
		if tb, ok := rs[0].AsTable(); ok {
			for i := 1; i <= tb.Len(); i++ {
				fmt.Println(tb.Index(i).Str())
			}
		}
		return nil
	case "query":
		if len(args) < 2 {
			return fmt.Errorf("usage: adaptctl query <type> [constraint] [preference]")
		}
		ref, err := wire.ParseObjRef(*traderRef)
		if err != nil {
			return err
		}
		constraint, preference := "", ""
		if len(args) > 2 {
			constraint = args[2]
		}
		if len(args) > 3 {
			preference = args[3]
		}
		lookup := trading.NewLookup(client, ref)
		results, err := lookup.Query(ctx, args[1], constraint, preference, 0)
		if err != nil {
			return err
		}
		if len(results) == 0 {
			fmt.Println("no matching offers")
			return nil
		}
		for _, r := range results {
			fmt.Printf("%s  %s\n", r.Offer.ID, r.Offer.Ref)
			for name, v := range r.Snapshot {
				fmt.Printf("    %-20s %s\n", name, v)
			}
		}
		return nil
	case "shards":
		ref, err := wire.ParseObjRef(*traderRef)
		if err != nil {
			return err
		}
		rs, err := client.Invoke(ctx, ref, "shardStatus")
		if err != nil {
			return err
		}
		printShardStatus(rs[0])
		return nil
	case "metrics":
		ref, err := wire.ParseObjRef(*traderRef)
		if err != nil {
			return err
		}
		rs, err := client.Invoke(ctx, ref, "metrics")
		if err != nil {
			return err
		}
		fmt.Print(rs[0].Str())
		return nil
	case "renew":
		if len(args) < 2 {
			return fmt.Errorf("usage: adaptctl renew <offer-id>")
		}
		ref, err := wire.ParseObjRef(*traderRef)
		if err != nil {
			return err
		}
		lookup := trading.NewLookup(client, ref)
		if err := lookup.Renew(ctx, args[1]); err != nil {
			return err
		}
		fmt.Println("lease renewed")
		return nil
	case "invoke":
		if len(args) < 3 {
			return fmt.Errorf("usage: adaptctl invoke <objref> <op> [args...]")
		}
		ref, err := wire.ParseObjRef(args[1])
		if err != nil {
			return err
		}
		vals := make([]wire.Value, 0, len(args)-3)
		for _, a := range args[3:] {
			vals = append(vals, parseArg(a))
		}
		rs, err := client.Invoke(ctx, ref, args[2], vals...)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Println(r)
		}
		return nil
	case "monitor":
		if len(args) < 2 {
			return fmt.Errorf("usage: adaptctl monitor <monitor-objref>")
		}
		ref, err := wire.ParseObjRef(args[1])
		if err != nil {
			return err
		}
		val, err := client.Invoke(ctx, ref, "getValue")
		if err != nil {
			return err
		}
		fmt.Println("value:", val[0])
		aspects, err := client.Invoke(ctx, ref, "definedAspects")
		if err != nil {
			return err
		}
		if tb, ok := aspects[0].AsTable(); ok {
			for i := 1; i <= tb.Len(); i++ {
				name := tb.Index(i).Str()
				av, err := client.Invoke(ctx, ref, "getAspectValue", wire.String(name))
				if err != nil {
					return err
				}
				fmt.Printf("aspect %-16s %s\n", name+":", av[0])
			}
		}
		return nil
	case "aspect":
		if len(args) < 3 {
			return fmt.Errorf("usage: adaptctl aspect <monitor-objref> <name>... (several names: one getAspectValues call, all from one sample)")
		}
		ref, err := wire.ParseObjRef(args[1])
		if err != nil {
			return err
		}
		if len(args) == 3 {
			rs, err := client.Invoke(ctx, ref, "getAspectValue", wire.String(args[2]))
			if err != nil {
				return err
			}
			fmt.Println(rs[0])
			return nil
		}
		names := make([]wire.Value, len(args)-2)
		for i, name := range args[2:] {
			names[i] = wire.String(name)
		}
		rs, err := client.Invoke(ctx, ref, "getAspectValues", names...)
		if err != nil {
			return err
		}
		for i, v := range rs {
			fmt.Printf("aspect %-16s %s\n", args[2+i]+":", v)
		}
		return nil
	case "define":
		if len(args) < 4 {
			return fmt.Errorf("usage: adaptctl define <monitor-objref> <aspect> <code>")
		}
		ref, err := wire.ParseObjRef(args[1])
		if err != nil {
			return err
		}
		_, err = client.Invoke(ctx, ref, "defineAspect", wire.String(args[2]), wire.String(args[3]))
		if err != nil {
			return err
		}
		fmt.Println("aspect defined (shipped code installed at the monitor)")
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// printShardStatus renders the shardStatus reply (see shard.Servant for
// the wire layout).
func printShardStatus(v wire.Value) {
	tb, ok := v.AsTable()
	if !ok {
		fmt.Println(v)
		return
	}
	if shards, ok := tb.GetString("shards").AsTable(); ok {
		for i := 1; i <= shards.Len(); i++ {
			sh, ok := shards.Index(i).AsTable()
			if !ok {
				continue
			}
			state := "alive"
			if b, _ := sh.GetString("alive").AsBool(); !b {
				state = "DEAD"
			}
			fmt.Printf("%-10s %s", sh.GetString("name").Str(), state)
			if owned, ok := sh.GetString("owned").AsTable(); ok && owned.Len() > 0 {
				fmt.Print("  owns:")
				for j := 1; j <= owned.Len(); j++ {
					fmt.Printf(" %s", owned.Index(j).Str())
				}
			}
			fmt.Println()
		}
	}
	if router, ok := tb.GetString("router").AsTable(); ok {
		fmt.Print("router:")
		router.Pairs(func(k, val wire.Value) bool {
			fmt.Printf(" %s=%v", k.Str(), val)
			return true
		})
		fmt.Println()
	}
}

func parseArg(s string) wire.Value {
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return wire.Number(n)
	}
	switch s {
	case "true":
		return wire.Bool(true)
	case "false":
		return wire.Bool(false)
	case "nil":
		return wire.Nil()
	}
	return wire.String(s)
}
