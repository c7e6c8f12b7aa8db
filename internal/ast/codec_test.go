package ast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestRuleBinaryRoundTrip: random rules — negated atoms, variable relation
// and peer terms, deletion heads, constants of every kind with NaN, ±Inf and
// −0.0 among the floats — decode from their binary form to an equal rule
// (constants bit for bit) that re-encodes to the same bytes; a trailing byte
// or a forged count is refused.
func TestRuleBinaryRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	values := []value.Value{value.Str("emilien"), value.Str(""), value.Int(-7), value.Float(math.NaN()),
		value.Float(math.Inf(-1)), value.Float(math.Copysign(0, -1)), value.Bool(true), value.Blob([]byte{0, 0xff})}
	term := func() Term {
		if rnd.Intn(2) == 0 {
			return V(fmt.Sprintf("v%d", rnd.Intn(3)))
		}
		return C(values[rnd.Intn(len(values))])
	}
	atom := func() Atom {
		a := Atom{Neg: rnd.Intn(3) == 0, Rel: term(), Peer: term()}
		for i := rnd.Intn(4); i > 0; i-- {
			a.Args = append(a.Args, term())
		}
		return a
	}
	for i := 0; i < 500; i++ {
		r := Rule{Op: UpdateOp(rnd.Intn(2)), Head: atom()}
		for j := rnd.Intn(4); j > 0; j-- {
			r.Body = append(r.Body, atom())
		}
		b := r.AppendBinary(nil)
		got, err := DecodeRule(b)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", r) {
			t.Fatalf("round trip changed\n%#v\ninto\n%#v", r, got)
		}
		if again := got.AppendBinary(nil); !bytes.Equal(again, b) {
			t.Fatalf("%v re-encodes differently", r)
		}
		if _, err := DecodeRule(append(b, 0)); err == nil {
			t.Fatalf("%v with a trailing byte decoded", r)
		}
	}
	head := Rule{Head: NewAtom("out", "b")}.AppendBinary(nil)
	forged := binary.AppendUvarint(head[:len(head)-1], 1<<32) // the body count, last
	if _, err := DecodeRule(append(forged, make([]byte, 40)...)); err == nil {
		t.Fatal("a rule announcing 2^32 body atoms decoded")
	}
}
