package store

import (
	"os"
	"path/filepath"
	"testing"
)

func TestOutboxLogRecover(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.LogEnqueue("bob", 1, []byte("m1")))
	must(l.LogEnqueue("bob", 2, []byte("m2")))
	must(l.LogEnqueue("carol", 1, []byte("c1")))
	must(l.LogAck("bob", 1))
	must(l.LogApplied("dave", 5, 7))
	must(l.Sync())
	must(l.Close())

	l2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st, err := l2.Recover(New())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Pending["bob"]; len(got) != 1 || got[0].Seq != 2 || string(got[0].Payload) != "m2" {
		t.Errorf("bob pending = %v, want just seq 2", got)
	}
	if got := st.Pending["carol"]; len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("carol pending = %v, want seq 1", got)
	}
	if st.NextSeq["bob"] != 2 || st.Acked["bob"] != 1 {
		t.Errorf("bob nextSeq/acked = %d/%d, want 2/1", st.NextSeq["bob"], st.Acked["bob"])
	}
	if st.Applied["dave"] != (AppliedMark{Epoch: 5, Seq: 7}) {
		t.Errorf("dave applied = %+v, want epoch 5 seq 7", st.Applied["dave"])
	}
}

func TestOutboxLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := l.LogEnqueue("bob", i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i < 100 {
			if err := l.LogAck("bob", i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.LogApplied("dave", 5, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch(99); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := l.Recover(New())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(New(), "p", st); err != nil {
		t.Fatal(err)
	}
	// epoch, the enqueue+ack pair keeping bob's floor, bob's pending entry,
	// dave's watermark
	if l.Records() != 5 {
		t.Errorf("records after checkpoint = %d, want 5", l.Records())
	}
	// The checkpoint must shrink the file to the live state.
	fi, err := os.Stat(filepath.Join(dir, outboxName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 512 {
		t.Errorf("compacted log is %d bytes; expected just the live state", fi.Size())
	}
	// The log keeps working and recovery sees the same state.
	if err := l.LogEnqueue("bob", 101, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st2, err := l2.Recover(New())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Pending["bob"]; len(got) != 2 || got[0].Seq != 100 || got[1].Seq != 101 {
		t.Errorf("bob pending after compact+append = %v, want seqs 100,101", got)
	}
	if st2.NextSeq["bob"] != 101 || st2.Acked["bob"] != 99 {
		t.Errorf("bob nextSeq/acked = %d/%d, want 101/99", st2.NextSeq["bob"], st2.Acked["bob"])
	}
	if st2.Applied["dave"] != (AppliedMark{Epoch: 5, Seq: 3}) {
		t.Errorf("dave applied = %+v, want epoch 5 seq 3", st2.Applied["dave"])
	}
	if st2.Epoch != 99 {
		t.Errorf("epoch = %d, want 99 preserved across the checkpoint", st2.Epoch)
	}
}

// TestOutboxLogCompactionRoundTripInterleaved: appends before and after a
// mid-stream checkpoint — including a per-stream reset — must recover to
// exactly the live state: the checkpoint plus everything appended after it,
// with nothing from the superseded history resurrected.
func TestOutboxLogCompactionRoundTripInterleaved(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: interleaved traffic to two destinations plus applied marks,
	// with stream c reset mid-way (c1/c2 superseded, c1' re-logged at a
	// renumbered sequence under the per-stream epoch).
	must(l.LogEpoch(77))
	must(l.LogEnqueue("b", 1, []byte("b1")))
	must(l.LogEnqueue("c", 1, []byte("c1")))
	must(l.LogApplied("d", 77, 4))
	must(l.LogEnqueue("b", 2, []byte("b2")))
	must(l.LogAck("b", 1))
	must(l.LogEnqueue("c", 2, []byte("c2")))
	must(l.LogReset("c", 99))
	must(l.LogEnqueue("c", 1, []byte("c1'")))
	must(l.Sync())

	// Mid-stream checkpoint of the state as a caller would take it.
	must(l.Checkpoint(New(), "p", &OutboxState{
		Epoch:   77,
		Epochs:  map[string]uint64{"b": 77, "c": 99},
		Pending: map[string][]OutboxEntry{"b": {{Seq: 2, Payload: []byte("b2")}}, "c": {{Seq: 1, Payload: []byte("c1'")}}},
		NextSeq: map[string]uint64{"b": 2, "c": 1},
		Acked:   map[string]uint64{"b": 1},
		Applied: map[string]AppliedMark{"d": {Epoch: 77, Seq: 4}},
	}))

	// Phase 2: more appends interleave after the rewrite.
	must(l.LogEnqueue("b", 3, []byte("b3")))
	must(l.LogAck("b", 2))
	must(l.LogApplied("d", 77, 9))
	must(l.LogEnqueue("c", 2, []byte("c2'")))
	must(l.Sync())
	must(l.Close())

	// Recovery must see the checkpoint plus phase 2, nothing else.
	l2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st, err := l2.Recover(New())
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 77 {
		t.Errorf("Epoch = %d, want 77", st.Epoch)
	}
	if st.Epochs["c"] != 99 {
		t.Errorf("Epochs[c] = %d, want the reset epoch 99", st.Epochs["c"])
	}
	if got := st.Pending["b"]; len(got) != 1 || got[0].Seq != 3 || string(got[0].Payload) != "b3" {
		t.Errorf("b pending = %v, want just b3 at seq 3", got)
	}
	if got := st.Pending["c"]; len(got) != 2 || got[0].Seq != 1 || string(got[0].Payload) != "c1'" ||
		got[1].Seq != 2 || string(got[1].Payload) != "c2'" {
		t.Errorf("c pending = %v, want the renumbered c1' and c2' only", got)
	}
	if st.NextSeq["b"] != 3 || st.Acked["b"] != 2 {
		t.Errorf("b nextSeq/acked = %d/%d, want 3/2", st.NextSeq["b"], st.Acked["b"])
	}
	if st.NextSeq["c"] != 2 || st.Acked["c"] != 0 {
		t.Errorf("c nextSeq/acked = %d/%d, want 2/0", st.NextSeq["c"], st.Acked["c"])
	}
	if st.Applied["d"] != (AppliedMark{Epoch: 77, Seq: 9}) {
		t.Errorf("d applied = %+v, want epoch 77 seq 9", st.Applied["d"])
	}
}

func TestOutboxLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogEnqueue("bob", 1, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn trailing record.
	tearLog(t, dir, outboxName, tornOutboxRecord())

	l2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st, err := l2.Recover(New())
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if got := st.Pending["bob"]; len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("bob pending = %v, want the intact record only", got)
	}
}

// recoverOutboxLog opens the log in dir and recovers its delivery state.
func recoverOutboxLog(t testing.TB, dir string) (*WAL, *OutboxState, error) {
	t.Helper()
	w, _, st, err := recoverBoth(t, dir)
	return w, st, err
}

// TestOutboxLogTornTailSurvivesSecondRestart: as for the store's records,
// delivery records logged after a restart over a torn tail must not be
// glued to the fragment.
func TestOutboxLogTornTailSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogEnqueue("bob", 1, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tearLog(t, dir, outboxName, tornOutboxRecord())

	l, _, err = recoverOutboxLog(t, dir)
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	for seq := uint64(2); seq <= 3; seq++ {
		if err := l.LogEnqueue("bob", seq, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, st, err := recoverOutboxLog(t, dir)
	defer l.Close()
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if got := st.Pending["bob"]; len(got) != 3 || st.NextSeq["bob"] != 3 {
		t.Errorf("bob pending = %v next = %d, want 3 entries up to seq 3", got, st.NextSeq["bob"])
	}
}

// tornOutboxRecord returns the first half of an enqueue record for bob.
func tornOutboxRecord() []byte {
	rec := walRecord{Op: walEnqueue, Peer: "bob", Seq: 3, Payload: []byte("m3")}
	b := framed(rec.append(nil))
	return b[:len(b)/2]
}
