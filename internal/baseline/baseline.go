// Package baseline implements the comparison selection policies for
// experiment E1.
//
// Static is the system the paper's §V example is explicitly contrasted
// against (Badidi et al. [20]): the client selects a server through the
// trader once — using the same dynamic load property — and then never
// changes servers, so "if the client-server interactions are long, the
// system may become unbalanced". RoundRobin and Random are the classic
// load-oblivious policies, included to position the trader-based schemes.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Invoker is the common invocation surface shared by baseline clients and
// the smart proxy, so the experiment driver treats them uniformly.
type Invoker interface {
	Invoke(ctx context.Context, op string, args ...wire.Value) ([]wire.Value, error)
}

// ErrNoOffers is returned when binding finds no exported offers.
var ErrNoOffers = errors.New("baseline: no offers available")

// Static is the one-shot trader selection client. It queries once at Bind
// (with a load-aware preference, like [20]) and sticks with the result.
type Static struct {
	client      *orb.Client
	lookup      trading.Directory
	serviceType string
	preference  string

	mu    sync.Mutex
	proxy *orb.Proxy
}

// NewStatic builds a static client. preference defaults to "min LoadAvg".
func NewStatic(client *orb.Client, lookup trading.Directory, serviceType, preference string) *Static {
	if preference == "" {
		preference = "min LoadAvg"
	}
	return &Static{client: client, lookup: lookup, serviceType: serviceType, preference: preference}
}

// Bind performs the one-time selection.
func (s *Static) Bind(ctx context.Context) error {
	rs, err := s.lookup.Query(ctx, s.serviceType, "", s.preference, 1)
	if err != nil {
		return fmt.Errorf("baseline: static bind: %w", err)
	}
	if len(rs) == 0 {
		return ErrNoOffers
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.proxy = s.client.NewProxy(rs[0].Offer.Ref)
	return nil
}

// Invoke implements Invoker.
func (s *Static) Invoke(ctx context.Context, op string, args ...wire.Value) ([]wire.Value, error) {
	s.mu.Lock()
	p := s.proxy
	s.mu.Unlock()
	if p == nil {
		return nil, errors.New("baseline: static client not bound")
	}
	return p.Call(ctx, op, args...)
}

// listBound is the shared machinery of RoundRobin and Random: a one-time
// query for every offer of the type.
type listBound struct {
	client      *orb.Client
	lookup      trading.Directory
	serviceType string

	mu   sync.Mutex
	refs []wire.ObjRef
}

func (l *listBound) bind(ctx context.Context) error {
	rs, err := l.lookup.Query(ctx, l.serviceType, "", "first", 0)
	if err != nil {
		return fmt.Errorf("baseline: bind: %w", err)
	}
	if len(rs) == 0 {
		return ErrNoOffers
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refs = l.refs[:0]
	for _, r := range rs {
		l.refs = append(l.refs, r.Offer.Ref)
	}
	return nil
}

// RoundRobin rotates through every exported offer, one per invocation.
type RoundRobin struct {
	listBound
	next int
}

// NewRoundRobin builds a round-robin client.
func NewRoundRobin(client *orb.Client, lookup trading.Directory, serviceType string) *RoundRobin {
	return &RoundRobin{listBound: listBound{client: client, lookup: lookup, serviceType: serviceType}}
}

// Bind queries the trader for the offer list.
func (r *RoundRobin) Bind(ctx context.Context) error { return r.bind(ctx) }

// Invoke implements Invoker.
func (r *RoundRobin) Invoke(ctx context.Context, op string, args ...wire.Value) ([]wire.Value, error) {
	ref, err := r.nextRef()
	if err != nil {
		return nil, err
	}
	return r.client.Invoke(ctx, ref, op, args...)
}

func (r *RoundRobin) nextRef() (wire.ObjRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.refs) == 0 {
		return wire.ObjRef{}, ErrNoOffers
	}
	ref := r.refs[r.next%len(r.refs)]
	r.next++
	return ref, nil
}

// Random picks a uniformly random offer per invocation, from a seeded
// source so experiments are reproducible.
type Random struct {
	listBound
	rng *rand.Rand
}

// NewRandom builds a random-selection client.
func NewRandom(client *orb.Client, lookup trading.Directory, serviceType string, seed int64) *Random {
	return &Random{
		listBound: listBound{client: client, lookup: lookup, serviceType: serviceType},
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Bind queries the trader for the offer list.
func (r *Random) Bind(ctx context.Context) error { return r.bind(ctx) }

// Invoke implements Invoker.
func (r *Random) Invoke(ctx context.Context, op string, args ...wire.Value) ([]wire.Value, error) {
	ref, err := r.randRef()
	if err != nil {
		return nil, err
	}
	return r.client.Invoke(ctx, ref, op, args...)
}

func (r *Random) randRef() (wire.ObjRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.refs) == 0 {
		return wire.ObjRef{}, ErrNoOffers
	}
	return r.refs[r.rng.Intn(len(r.refs))], nil
}
