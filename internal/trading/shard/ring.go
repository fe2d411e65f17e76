// Package shard partitions the trading service across several trader
// shards and routes client traffic to the owning shard.
//
// The paper's OMG trading model already assumes traders federate through
// links; this package is the performance-first realization of that: the
// offer space is partitioned by a stable hash of the service type, a thin
// shard-aware routing client (Router) sends Export/Query/Withdraw/Renew/
// Modify straight to the owning shard, and a liveness poll (Router.Probe)
// notices dead and rejoining shards between client calls. What the package
// buys is failure isolation, not throughput: a dead shard's types are
// reassigned to the survivors, agents re-export their offers to the new
// owner through the ordinary lease-renewal path, and a rejoining shard
// takes its types back with a grace window during which queries consult
// both owners.
package shard

import "autoadapt/internal/trading"

// Ownership is decided by rendezvous (highest-random-weight) hashing: each
// service type scores every live shard with a stable hash of
// (type, shard name) and the highest score wins. Unlike modulo hashing,
// membership changes move only the types whose winner changed — exactly the
// types owned by the shard that died or rejoined — so churn causes minimal
// re-exporting.

// owner returns the index of the live shard owning serviceType, or -1 when
// no shard is alive. names supplies the stable per-shard identity; alive
// masks membership.
func owner(serviceType string, names []string, alive func(int) bool) int {
	best, bestScore := -1, uint64(0)
	h := trading.FNVString(trading.FNVOffset64, serviceType)
	for i, name := range names {
		if !alive(i) {
			continue
		}
		score := trading.FNVString(h, name)
		if best < 0 || score > bestScore || (score == bestScore && name < names[best]) {
			best, bestScore = i, score
		}
	}
	return best
}
