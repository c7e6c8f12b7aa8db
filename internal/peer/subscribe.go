package peer

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/store"
	"repro/internal/value"
)

// Delta is one observed change to a subscribed relation: the insertion
// (default) or deletion of a tuple, as committed by a fixpoint stage.
type Delta struct {
	Rel    string
	Delete bool
	Tuple  value.Tuple
}

// String renders the delta for logs.
func (d Delta) String() string {
	if d.Delete {
		return "-" + d.Rel + d.Tuple.String()
	}
	return "+" + d.Rel + d.Tuple.String()
}

// SubscribeBuffer is the capacity of a subscription's delta channel. A
// consumer that falls more than a full buffer behind is disconnected (its
// channel is closed and an errdefs.ErrSlowSubscriber is recorded on the
// stage report) rather than allowed to wedge the stage loop.
const SubscribeBuffer = 256

type subscription struct {
	id   int
	rel  *store.Relation
	ch   chan Delta
	stop func() bool // unregisters the ctx callback (context.AfterFunc)
}

// Subscribe streams changes to the named local relation: every time a stage
// commits, the tuples that appeared are delivered as insert deltas and the
// tuples that vanished as delete deltas, in sorted order, deletions first.
// This is the primitive a live UI (the Wepic photo wall) or any serving
// frontend polls-free view maintenance builds on.
//
// The baseline is the relation's contents at Subscribe time: only
// subsequent changes stream, and a Query taken right after Subscribe with
// every delta applied in order equals the relation after each stage.
// Subscribing is O(1): the stream is each stage's own exact net changes.
// Works for extensional and rule-derived (intensional) relations alike — a
// derived view that is rebuilt to the same contents produces no deltas.
//
// The channel is closed when ctx is cancelled, when the peer is closed, or
// if the consumer falls further behind than SubscribeBuffer deltas; nothing
// of the subscription outlives its channel. The relation must already be
// declared; subscribing to an unknown relation returns an error wrapping
// errdefs.ErrUnknownRelation.
func (p *Peer) Subscribe(ctx context.Context, relName string) (<-chan Delta, error) {
	rel := p.db.Get(relName, p.name)
	if rel == nil {
		return nil, fmt.Errorf("peer %s: %w: %s", p.name, errdefs.ErrUnknownRelation, relName)
	}
	// Register under p.mu: stages stream under p.mu too, so the contents as
	// of now are exactly what the first streamed delta applies to.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("peer %s: %w", p.name, errdefs.ErrClosed)
	}
	p.subSeq++
	sub := &subscription{id: p.subSeq, rel: rel, ch: make(chan Delta, SubscribeBuffer)}
	sub.stop = context.AfterFunc(ctx, func() { p.removeSub(sub.id) })
	p.subs[sub.id] = sub
	return sub.ch, nil
}

// Subscribers returns the number of live subscriptions (introspection).
func (p *Peer) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// removeSub unregisters and closes a subscription; idempotent.
func (p *Peer) removeSub(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sub, ok := p.subs[id]; ok {
		p.dropSubLocked(sub)
	}
}

// dropSubLocked unregisters a live subscription, releases its ctx callback
// and closes its channel — the one way every subscription ends.
func (p *Peer) dropSubLocked(sub *subscription) {
	delete(p.subs, sub.id)
	sub.stop()
	close(sub.ch)
}

// emitSubscriptionsLocked streams the stage's net effect to every
// subscription. Called at the end of each stage that ran, with p.mu held.
// Every stage knows its exact changes — the base-fact deltas recorded during
// ingestion (wrapper pulls included) plus the engine's view deltas, which
// rebuilds report as well as incremental stages — so delivery is O(deltas).
func (p *Peer) emitSubscriptionsLocked(rep *StageReport, d *stageDeltas, res *engine.Result) {
	for _, sub := range p.subs {
		deltas := sub.collectDeltas(d, res)
	deliver:
		for i, dl := range deltas {
			select {
			case sub.ch <- dl:
			default:
				rep.Errors = append(rep.Errors, fmt.Errorf(
					"peer %s: %w: %s subscription dropped %d deltas",
					p.name, errdefs.ErrSlowSubscriber, sub.rel.Name(), len(deltas)-i))
				p.dropSubLocked(sub)
				p.stats.SubscriptionDrops++
				break deliver
			}
		}
	}
}

// collectDeltas assembles the stage's exact deltas for this subscription:
// deletions first, then insertions, each sorted.
func (sub *subscription) collectDeltas(d *stageDeltas, res *engine.Result) []Delta {
	relID := sub.rel.ID()
	var dels, ins []value.Tuple
	var delKeys, insKeys []string
	if rd := d.rels[relID]; rd != nil {
		// Copies: netTuples below compacts them in place.
		dels, ins = slices.Clone(rd.del.ts), slices.Clone(rd.ins.ts)
		delKeys, insKeys = rd.del.keys, rd.ins.keys
	}
	if vd := res.Views[relID]; vd != nil {
		dels = append(dels, vd.Del...)
		ins = append(ins, vd.Ins...)
	}
	dels, ins = netTuples(dels, delKeys, ins, insKeys)
	if len(dels) == 0 && len(ins) == 0 {
		return nil
	}
	value.SortTuples(dels)
	value.SortTuples(ins)
	out := make([]Delta, 0, len(dels)+len(ins))
	for _, t := range dels {
		out = append(out, Delta{Rel: sub.rel.Name(), Delete: true, Tuple: t})
	}
	for _, t := range ins {
		out = append(out, Delta{Rel: sub.rel.Name(), Tuple: t})
	}
	return out
}

// netTuples cancels same-key delete/insert pairs, compacting dels and ins in
// place: a tuple seeded and retracted within one stage (coalesced maintained
// deltas) produces no observable change. delKeys and insKeys hold the keys
// of a prefix of dels and of ins (the stage's lists); every other tuple's key
// is encoded once.
func netTuples(dels []value.Tuple, delKeys []string, ins []value.Tuple, insKeys []string) ([]value.Tuple, []value.Tuple) {
	if len(dels) == 0 || len(ins) == 0 {
		return dels, ins
	}
	keys := insKeys
	if len(keys) < len(ins) {
		keys = append(make([]string, 0, len(ins)), insKeys...)
		for _, t := range ins[len(insKeys):] {
			keys = append(keys, t.Key())
		}
	}
	// live maps each inserted key to whether a delete has not cancelled it.
	live := make(map[string]bool, len(ins))
	for _, k := range keys[:len(ins)] {
		live[k] = true
	}
	cancelled := false
	keptDels := dels[:0]
	for i, t := range dels {
		k := ""
		if i < len(delKeys) {
			k = delKeys[i]
		} else {
			k = t.Key()
		}
		if _, ok := live[k]; ok {
			live[k], cancelled = false, true
			continue
		}
		keptDels = append(keptDels, t)
	}
	if !cancelled {
		return keptDels, ins
	}
	keptIns := ins[:0]
	for i, t := range ins {
		if live[keys[i]] {
			keptIns = append(keptIns, t)
		}
	}
	return keptDels, keptIns
}
