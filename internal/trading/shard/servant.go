package shard

import (
	"sort"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Servant exposes a Router over the ORB under the ordinary trader wire
// interface, so remote agents and clients talk to a sharded deployment
// through the same well-known object key as a single trader. On top of
// the Directory operations (delegated to trading.Servant over the
// router) it answers shardStatus, the operator introspection call behind
// `adaptctl shards`:
//
//	shardStatus reply: table{
//	    shards = list of table{name, alive, owned=list(type)},
//	    router = table{queries, reassigns, shardStrikes, handoffMerges,
//	             migratedRenews, probeFails},
//	}
type Servant struct {
	inner  *trading.Servant
	router *Router
}

// NewServant wraps a router for registration on an ORB server.
func NewServant(r *Router) *Servant {
	typeNames := func() []string {
		sts := r.KnownTypes()
		names := make([]string, len(sts))
		for i, st := range sts {
			names[i] = st.Name
		}
		sort.Strings(names)
		return names
	}
	return &Servant{
		inner:  trading.NewDirectoryServant(r, typeNames),
		router: r,
	}
}

// WithMetricsText makes the wrapped trader interface's `metrics` op return
// fn() — usually a metrics.Registry's Text — so `adaptctl metrics` works
// against a sharded deployment too. Returns s for chaining.
func (s *Servant) WithMetricsText(fn func() string) *Servant {
	s.inner.WithMetricsText(fn)
	return s
}

var _ orb.Servant = (*Servant)(nil)

// Invoke implements orb.Servant.
func (s *Servant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	if op == "shardStatus" {
		return []wire.Value{s.status()}, nil
	}
	return s.inner.Invoke(op, args)
}

func (s *Servant) status() wire.Value {
	r := s.router

	// Group type ownership by shard so the reply reads as a placement map.
	owned := make(map[int][]string)
	for _, st := range r.KnownTypes() {
		if o := r.Owner(st.Name); o >= 0 {
			owned[o] = append(owned[o], st.Name)
		}
	}

	shards := wire.NewTable()
	for i := 0; i < r.NumShards(); i++ {
		sh := wire.NewTable()
		sh.SetString("name", wire.String(r.ShardName(i)))
		sh.SetString("alive", wire.Bool(r.Alive(i)))
		types := wire.NewTable()
		sort.Strings(owned[i])
		for _, t := range owned[i] {
			types.Append(wire.String(t))
		}
		sh.SetString("owned", wire.TableVal(types))
		shards.Append(wire.TableVal(sh))
	}

	rst := r.Stats()
	router := wire.NewTable()
	router.SetString("queries", wire.Int(int(rst.Queries)))
	router.SetString("reassigns", wire.Int(int(rst.Reassigns)))
	router.SetString("shardStrikes", wire.Int(int(rst.ShardStrikes)))
	router.SetString("handoffMerges", wire.Int(int(rst.HandoffMerges)))
	router.SetString("migratedRenews", wire.Int(int(rst.MigratedRenews)))
	router.SetString("probeFails", wire.Int(int(rst.ProbeFails)))

	out := wire.NewTable()
	out.SetString("shards", wire.TableVal(shards))
	out.SetString("router", wire.TableVal(router))
	return wire.TableVal(out)
}
