// Command trader runs a standalone trading-service daemon over TCP — the
// central piece of the paper's Fig. 6 architecture.
//
// Usage:
//
//	trader -listen 127.0.0.1:9050 -type LoadShared -type ImageService
//	trader -shards 4 -lease-ttl 10s
//
// Agents export offers to it (cmd/agentd), clients query it (cmd/adaptctl,
// cmd/loadshare). Additional service types can also be added at run time
// through the trader's addType operation.
//
// With -shards N > 1 the offer space is partitioned across N in-process
// trader shards behind the shard routing client, served at the same
// well-known object key — clients cannot tell the difference (see
// `adaptctl shards` for live placement).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"autoadapt"
)

type typeList []string

func (t *typeList) String() string { return fmt.Sprint(*t) }
func (t *typeList) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trader:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:9050", "TCP address to listen on")
		check    = flag.Bool("check-idl", true, "type-check trader operations against the IDL")
		leaseTTL = flag.Duration("lease-ttl", 0, "offer lease TTL; unrenewed offers expire (0 disables leasing)")
		reap     = flag.Duration("reap-interval", 0, "how often expired offers are collected (default lease-ttl/3)")
		shards   = flag.Int("shards", 1, "partition the offer space across N trader shards")
		maxConc  = flag.Int("max-concurrent", 0, "dispatch pool size: max concurrently served requests (0 = ORB default)")
		resolveT = flag.Duration("resolve-timeout", 0, "cap on each query's dynamic-property resolution phase (0 = caller deadline only)")
		metrics  = flag.Bool("metrics", true, "instrument the daemon and serve the registry via the metrics operation (adaptctl metrics)")
		types    typeList
	)
	flag.Var(&types, "type", "service type to register (repeatable)")
	flag.Parse()
	if len(types) == 0 {
		types = typeList{"LoadShared"}
	}

	var sts []autoadapt.ServiceType
	for _, name := range types {
		sts = append(sts, autoadapt.ServiceType{
			Name:  name,
			Props: []string{"LoadAvg", "LoadAvgIncreasing", "Host"},
		})
	}
	logger := log.New(os.Stderr, "trader ", log.LstdFlags)
	var reg *autoadapt.MetricsRegistry
	if *metrics {
		reg = autoadapt.NewMetricsRegistry()
	}
	var (
		endpoint string
		ref      autoadapt.ObjRef
		closer   interface{ Close() error }
	)
	if *shards > 1 {
		h, err := autoadapt.StartShardedTrader(autoadapt.ShardedTraderOptions{
			Network:        autoadapt.TCP(),
			Address:        *listen,
			Shards:         *shards,
			Types:          sts,
			CheckIDL:       *check,
			LeaseTTL:       *leaseTTL,
			ReapInterval:   *reap,
			MaxConcurrent:  *maxConc,
			ResolveTimeout: *resolveT,
			Metrics:        reg,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		endpoint, ref, closer = h.Endpoint(), h.Ref, h
	} else {
		h, err := autoadapt.StartTrader(autoadapt.TraderOptions{
			Network:        autoadapt.TCP(),
			Address:        *listen,
			Types:          sts,
			CheckIDL:       *check,
			LeaseTTL:       *leaseTTL,
			ReapInterval:   *reap,
			MaxConcurrent:  *maxConc,
			ResolveTimeout: *resolveT,
			Metrics:        reg,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		endpoint, ref, closer = h.Endpoint(), h.Ref, h
	}
	defer closer.Close()

	fmt.Printf("trading service ready\n  endpoint:  %s\n  reference: %s\n  types:     %v\n",
		endpoint, ref, types)
	if *shards > 1 {
		fmt.Printf("  shards:    %d; inspect with: adaptctl shards\n", *shards)
	}
	if *leaseTTL > 0 {
		fmt.Printf("  leases:    %v TTL (agents must renew; see agentd -lease-ttl)\n", *leaseTTL)
	}
	if *metrics {
		fmt.Printf("  metrics:   enabled; inspect with: adaptctl -trader '%s' metrics\n", ref)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}
