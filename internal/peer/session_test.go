package peer

import (
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/value"
)

// TestSendSessionClock walks one send session through its four clocks on a
// fake clock, checking after each step what due reports: the ack deadline
// and its retransmit, the backoff gate (doubling, capped, cleared by an
// ack), the shed window (a full window without progress, counted from the
// start of the pending era), the advert period (no second advert while one
// is pending) and a reset that restarts every clock.
func TestSendSessionClock(t *testing.T) {
	const (
		ackTimeout = 200 * time.Millisecond
		base       = 10 * time.Millisecond
		maxBackoff = 40 * time.Millisecond
		resync     = 5 * time.Second
		shed       = time.Second
	)
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	dq := newSendSession("b", &timing{ackTimeout: ackTimeout, baseBackoff: base, maxBackoff: maxBackoff,
		resyncEvery: resync, shedAfter: shed}, 7, t0)
	fact := func(k int64) protocol.FactsMsg {
		return protocol.FactsMsg{Ops: []protocol.FactDelta{{Fact: ast.NewFact("r", "b", value.Int(k))}}}
	}
	advert := protocol.DigestMsg{Advert: true}
	sendAll := func(now time.Time) {
		for i := dq.unsent(); i >= 0; i = dq.unsent() {
			dq.sent(now, dq.resets, dq.entries[i].seq)
		}
	}
	wantBackoff := func(d time.Duration) func(*testing.T) {
		return func(t *testing.T) {
			if dq.backoff != d || dq.stalled() != (d > 0) {
				t.Errorf("backoff %v, stalled %v; want %v, %v", dq.backoff, dq.stalled(), d, d > 0)
			}
		}
	}
	wantAdvert := func(want bool) func(time.Time) {
		return func(now time.Time) {
			if got := dq.advertDue(now); got != want {
				t.Errorf("advertDue = %v, want %v", got, want)
			}
		}
	}

	steps := []struct {
		name  string
		now   time.Duration
		do    func(now time.Time)
		want  dueSet
		check func(*testing.T)
	}{
		{name: "enqueue starts the pending era", now: 0,
			do:   func(now time.Time) { dq.enqueue(now, fact(1)); dq.enqueue(now, fact(2)) },
			want: dueSet{flush: true, next: at(shed)}},
		{name: "a send arms the ack deadline", now: 10 * time.Millisecond,
			do:   sendAll,
			want: dueSet{next: at(10*time.Millisecond + ackTimeout)}},
		{name: "no retransmit before the deadline", now: 209 * time.Millisecond,
			want: dueSet{next: at(210 * time.Millisecond)}},
		{name: "the ack deadline retransmits", now: 210 * time.Millisecond,
			want: dueSet{retransmit: true, next: at(shed)}},
		{name: "a failed flush closes the gate at the base backoff", now: 300 * time.Millisecond,
			do:    func(now time.Time) { dq.resend(); dq.failed(now) },
			want:  dueSet{next: at(310 * time.Millisecond)},
			check: wantBackoff(base)},
		{name: "the gate holds back the flush", now: 309 * time.Millisecond,
			want: dueSet{next: at(310 * time.Millisecond)}},
		{name: "a second failure doubles the backoff", now: 310 * time.Millisecond,
			do:    func(now time.Time) { dq.failed(now) },
			want:  dueSet{next: at(330 * time.Millisecond)},
			check: wantBackoff(2 * base)},
		{name: "a third failure doubles it again", now: 330 * time.Millisecond,
			do:    func(now time.Time) { dq.failed(now) },
			want:  dueSet{next: at(370 * time.Millisecond)},
			check: wantBackoff(4 * base)},
		{name: "the backoff is capped", now: 370 * time.Millisecond,
			do:    func(now time.Time) { dq.failed(now) },
			want:  dueSet{next: at(410 * time.Millisecond)},
			check: wantBackoff(maxBackoff)},
		{name: "a stale-epoch ack changes nothing", now: 380 * time.Millisecond,
			do:    func(now time.Time) { dq.ack(now, 6, 2) },
			want:  dueSet{next: at(410 * time.Millisecond)},
			check: wantBackoff(maxBackoff)},
		{name: "an ack clears the backoff and restarts the shed window", now: 400 * time.Millisecond,
			do:    func(now time.Time) { dq.ack(now, 7, 1) },
			want:  dueSet{flush: true, next: at(1400 * time.Millisecond)},
			check: wantBackoff(0)},
		{name: "no shed before a full window without progress", now: 1399 * time.Millisecond,
			do:   sendAll,
			want: dueSet{next: at(1400 * time.Millisecond)}},
		{name: "a full window without progress sheds", now: 1400 * time.Millisecond,
			want: dueSet{shed: true, next: at(1599 * time.Millisecond)}},
		{name: "an ack drains the queue", now: 1500 * time.Millisecond,
			do:   func(now time.Time) { dq.ack(now, 7, 2) },
			want: dueSet{next: at(resync)}},
		{name: "the shed window counts from the start of the pending era", now: 4 * time.Second,
			do:   func(now time.Time) { dq.enqueue(now, fact(3)); sendAll(now) },
			want: dueSet{next: at(4*time.Second + ackTimeout)}},
		{name: "an ack drains the queue again", now: 4*time.Second + 100*time.Millisecond,
			do:   func(now time.Time) { dq.ack(now, 7, 3) },
			want: dueSet{next: at(resync)}},
		{name: "the advert period elapses", now: resync,
			want: dueSet{advert: true}},
		{name: "a due advert fires and re-arms", now: resync,
			do: func(now time.Time) {
				wantAdvert(true)(now)
				dq.enqueue(now, advert)
				sendAll(now)
			},
			want: dueSet{next: at(resync + ackTimeout)}},
		{name: "no second advert while one is pending", now: 2 * resync,
			do: func(now time.Time) {
				wantAdvert(false)(now)
				dq.ack(now, 7, 4)
			},
			want: dueSet{next: at(3 * resync)}},
		{name: "the next period brings the next advert", now: 3 * resync,
			do:   wantAdvert(true),
			want: dueSet{next: at(4 * resync)}},
		{name: "a reset restarts every clock", now: 3*resync + time.Second,
			do: func(now time.Time) {
				dq.enqueue(now, fact(4))
				dq.failed(now)
				dq.reset(now, 9, []protocol.Payload{fact(5), advert}, false)
			},
			want: dueSet{flush: true, next: at(3*resync + 2*time.Second)},
			check: func(t *testing.T) {
				wantBackoff(0)(t)
				if dq.epoch != 9 || dq.nextSeq != 3 || len(dq.entries) != 3 || dq.acked != 0 {
					t.Errorf("epoch %d, next seq %d, %d entries, acked %d; want 9, 3, 3, 0",
						dq.epoch, dq.nextSeq, len(dq.entries), dq.acked)
				}
				if want := at(4*resync + time.Second); !dq.advertAt.Equal(want) {
					t.Errorf("advert due at %v, want %v", dq.advertAt.Sub(t0), want.Sub(t0))
				}
			}},
	}
	for _, s := range steps {
		now := at(s.now)
		if s.do != nil {
			s.do(now)
		}
		if got := dq.due(now); got != s.want {
			t.Errorf("%s: due = %+v, want %+v", s.name, got, s.want)
		}
		if s.check != nil {
			s.check(t)
		}
	}
}

// TestAckSentKeepsNewEpochAck: an ack staged for a new inbound epoch while
// the old epoch's ack of the same sequence number is in flight survives
// that send, instead of waiting for the sender's retransmission.
func TestAckSentKeepsNewEpochAck(t *testing.T) {
	dq := newSendSession("b", &timing{}, 1, time.Time{})
	dq.stageAck(10, 1)
	epoch, seq := dq.ackEpoch, dq.pendingAck // in flight
	dq.stageAck(11, 1)                       // the stream was reset meanwhile
	dq.ackSent(epoch, seq)
	if dq.ackEpoch != 11 || dq.pendingAck != 1 {
		t.Fatalf("staged ack (%d, %d) after the old epoch's was sent, want (11, 1)", dq.ackEpoch, dq.pendingAck)
	}
	dq.ackSent(11, 1)
	if dq.pendingAck != 0 {
		t.Fatalf("staged ack %d after it was sent, want none", dq.pendingAck)
	}
}

// ledgerKeys returns the keys of every tuple of relID the sender maintains
// here, in canonical order.
func (s *inSession) ledgerKeys(relID string) []string {
	tr := s.trees[relID]
	if tr == nil {
		return nil
	}
	keys, _ := tr.RangeKeys(fullRange.Lo, fullRange.Hi, 0)
	return keys
}

// ledgerDigest returns the digest of one relation's ledger — a tree root
// read, zero when the sender maintains nothing in the relation.
func (s *inSession) ledgerDigest(relID string) store.Digest {
	if tr := s.trees[relID]; tr != nil {
		return tr.Root()
	}
	return store.Digest{}
}
