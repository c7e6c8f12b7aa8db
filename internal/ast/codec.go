package ast

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/value"
)

// The binary form of a rule carries a rule exactly inside one value — a
// delegated residual travels as a fact whose last column is this form. It is
// the op byte, the head atom, then a count and the body atoms; an atom is a
// negation byte, its relation and peer terms, then a count and its argument
// terms; a term is a tag byte and then the constant in value.Encode form (0)
// or the variable name (1). ID, Origin and source positions are not carried.
// Only what AppendBinary writes decodes, so a rule that decodes re-encodes to
// the same bytes.

// Term tags.
const (
	termConst byte = iota
	termVar
)

// Smallest encodings, for checking counts against the bytes left.
const (
	minTermSize = 3 // tag and a bool, or tag and a one-byte name
	minAtomSize = 8 // negation, two terms, no arguments
)

var errNotCanonical = errors.New("not in canonical form")

// AppendBinary appends the rule's binary form to dst.
func (r Rule) AppendBinary(dst []byte) []byte {
	dst = appendAtom(append(dst, byte(r.Op)), r.Head)
	dst = binary.AppendUvarint(dst, uint64(len(r.Body)))
	for _, a := range r.Body {
		dst = appendAtom(dst, a)
	}
	return dst
}

func appendAtom(dst []byte, a Atom) []byte {
	var neg byte
	if a.Neg {
		neg = 1
	}
	dst = appendTerm(append(dst, neg), a.Rel)
	dst = appendTerm(dst, a.Peer)
	dst = binary.AppendUvarint(dst, uint64(len(a.Args)))
	for _, t := range a.Args {
		dst = appendTerm(dst, t)
	}
	return dst
}

func appendTerm(dst []byte, t Term) []byte {
	if t.IsVar() {
		return value.AppendString(append(dst, termVar), t.Var)
	}
	return t.Val.Encode(append(dst, termConst))
}

// DecodeRule reads a rule in AppendBinary form; b must hold exactly one.
func DecodeRule(b []byte) (Rule, error) {
	d := value.NewReader(b)
	r := Rule{Op: UpdateOp(d.Byte())}
	if r.Op > Delete {
		d.Fail(errNotCanonical)
	}
	r.Head = readAtom(&d)
	if n := d.Count(minAtomSize); n > 0 {
		r.Body = make([]Atom, n)
		for i := range r.Body {
			r.Body[i] = readAtom(&d)
		}
	}
	if d.Len() > 0 {
		d.Fail(errNotCanonical)
	}
	if err := d.Err(); err != nil {
		return Rule{}, fmt.Errorf("ast: decoding a rule: %w", err)
	}
	return r, nil
}

func readAtom(d *value.Reader) Atom {
	a := Atom{Neg: d.Bool(), Rel: readTerm(d), Peer: readTerm(d)}
	if n := d.Count(minTermSize); n > 0 {
		a.Args = make([]Term, n)
		for i := range a.Args {
			a.Args[i] = readTerm(d)
		}
	}
	return a
}

func readTerm(d *value.Reader) Term {
	switch d.Byte() {
	case termConst:
		return Term{Val: d.Value()}
	case termVar:
		if v := d.Str(); v != "" {
			return Term{Var: v}
		}
	}
	d.Fail(errNotCanonical)
	return Term{}
}
