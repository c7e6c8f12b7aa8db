package protocol

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func TestFactsMsgRoundTrip(t *testing.T) {
	env := Envelope{From: "a", To: "b", Seq: 3, Msg: FactsMsg{Ops: []FactDelta{
		{Fact: ast.NewFact("r", "b", value.Str("x"), value.Int(1))},
		{Delete: true, Fact: ast.NewFact("r", "b", value.Blob([]byte{0xCA}), value.Float(1.5), value.Bool(true))},
	}}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	msg := got.Msg.(FactsMsg)
	if len(msg.Ops) != 2 || msg.Ops[0].Delete || !msg.Ops[1].Delete {
		t.Fatalf("ops = %v", msg.Ops)
	}
	if !msg.Ops[0].Fact.Equal(env.Msg.(FactsMsg).Ops[0].Fact) {
		t.Errorf("fact 0 corrupted: %v", msg.Ops[0].Fact)
	}
	if !msg.Ops[1].Fact.Equal(env.Msg.(FactsMsg).Ops[1].Fact) {
		t.Errorf("fact 1 corrupted: %v", msg.Ops[1].Fact)
	}
}

func TestDelegationMsgRoundTrip(t *testing.T) {
	rule := ast.Rule{
		ID:     "r1",
		Origin: "a",
		Op:     ast.Delete,
		Head:   ast.Atom{Rel: ast.CStr("out"), Peer: ast.V("p"), Args: []ast.Term{ast.V("x"), ast.CInt(5)}},
		Body: []ast.Atom{
			{Neg: true, Rel: ast.V("r"), Peer: ast.CStr("b"), Args: []ast.Term{ast.V("x")}},
		},
	}
	env := Envelope{From: "a", To: "b", Seq: 1, Msg: DelegationMsg{RuleID: "r1", Rules: []ast.Rule{rule}}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	dm := got.Msg.(DelegationMsg)
	if dm.RuleID != "r1" || len(dm.Rules) != 1 {
		t.Fatalf("msg = %+v", dm)
	}
	if !dm.Rules[0].Equal(rule) || dm.Rules[0].Op != ast.Delete || dm.Rules[0].Origin != "a" {
		t.Errorf("rule corrupted: %v vs %v", dm.Rules[0], rule)
	}
}

func TestWithdrawalEncodesEmptyRules(t *testing.T) {
	env := Envelope{From: "a", To: "b", Msg: DelegationMsg{RuleID: "r1"}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if dm := got.Msg.(DelegationMsg); len(dm.Rules) != 0 {
		t.Errorf("withdrawal decoded with rules: %v", dm.Rules)
	}
}

func TestControlMsgRoundTrip(t *testing.T) {
	for _, kind := range []ControlKind{ControlPing, ControlPong, ControlBye} {
		env := Envelope{From: "a", To: "b", Msg: ControlMsg{Kind: kind, Token: 7}}
		b, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatal(err)
		}
		cm := got.Msg.(ControlMsg)
		if cm.Kind != kind || cm.Token != 7 {
			t.Errorf("control = %+v", cm)
		}
	}
}

// TestRangedMessagesRoundTrip: the repair dialogue's message types and the
// advert flag survive the wire.
func TestRangedMessagesRoundTrip(t *testing.T) {
	full := HashRange{Lo: 0, Hi: ^uint64(0)}
	msgs := []Payload{
		ResyncRequestMsg{Advert: true},
		RangeRequestMsg{RelID: "r@b", Digest: []HashRange{full, {Lo: 1, Hi: 2}}, Repair: []HashRange{{Lo: 5, Hi: 6}}},
		DigestMsg{Rels: map[string][]RangeDigest{"r@b": {{Lo: 1, Hi: 2, Hash: 0xDEAD, Count: 4}}}},
		RangeRepairMsg{RelID: "r@b", Ranges: []HashRange{full}, Ops: []FactDelta{
			{Maint: true, Fact: ast.NewFact("r", "b", value.Str("x"))},
		}},
	}
	for _, msg := range msgs {
		b, err := Encode(Envelope{From: "a", To: "b", Msg: msg})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		switch m := got.Msg.(type) {
		case ResyncRequestMsg:
			if !m.Advert || m.Reset {
				t.Errorf("resync request = %+v", m)
			}
		case RangeRequestMsg:
			if m.RelID != "r@b" || len(m.Digest) != 2 || m.Digest[0] != full {
				t.Errorf("range request's digest ranges = %+v", m)
			}
			if len(m.Repair) != 1 || m.Repair[0] != (HashRange{Lo: 5, Hi: 6}) {
				t.Errorf("range request's repair ranges = %+v", m)
			}
		case DigestMsg:
			rs := m.Rels["r@b"]
			if m.Advert || len(m.Rels) != 1 || len(rs) != 1 || rs[0].Hash != 0xDEAD || rs[0].Count != 4 {
				t.Errorf("range digest = %+v", m)
			}
		case RangeRepairMsg:
			if m.RelID != "r@b" || len(m.Ranges) != 1 || len(m.Ops) != 1 || !m.Ops[0].Maint {
				t.Errorf("range repair = %+v", m)
			}
		default:
			t.Errorf("decoded unexpected type %T", got.Msg)
		}
	}
}

// TestRangedMessagesInsideDataMsg: the sequenced repair carrier and both
// shapes of the digest ride inside DataMsg.
func TestRangedMessagesInsideDataMsg(t *testing.T) {
	full := HashRange{Lo: 0, Hi: ^uint64(0)}
	for _, inner := range []Payload{
		RangeRepairMsg{RelID: "r@b", Ranges: []HashRange{{Lo: 7, Hi: 8}}},
		DigestMsg{Rels: map[string][]RangeDigest{"r@b": {{Lo: full.Lo, Hi: full.Hi, Hash: 0xBEEF, Count: 3}}},
			Deleg: map[string]uint64{"rule1": 9}, Advert: true},
		DigestMsg{Rels: map[string][]RangeDigest{"r@b": {{Lo: 7, Hi: 8, Hash: 0xBEEF, Count: 3}, {Lo: 9, Hi: 9}}}},
	} {
		b, err := Encode(Envelope{From: "a", To: "b", Msg: DataMsg{Epoch: 2, Seq: 5, Msg: inner}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatal(err)
		}
		dm := got.Msg.(DataMsg)
		if dm.Epoch != 2 || dm.Seq != 5 || !reflect.DeepEqual(dm.Msg, inner) {
			t.Fatalf("decoded %+v, want %+v inside", got.Msg, inner)
		}
	}
}

func TestEnvelopeString(t *testing.T) {
	env := Envelope{From: "a", To: "b", Seq: 9, Msg: FactsMsg{}}
	if got := env.String(); got == "" {
		t.Error("empty String()")
	}
	d := FactDelta{Delete: true, Fact: ast.NewFact("r", "p", value.Int(1))}
	if got := d.String(); got != "-r@p(1)" {
		t.Errorf("delta string = %q", got)
	}
}
