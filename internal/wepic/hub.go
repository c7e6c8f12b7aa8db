package wepic

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/peer"
	"repro/internal/value"
)

// Rule ids of the hub peer.
const (
	RuleHubPublishToFacebook = "hub-fb-publish" // the paper's §4 publication rule
	RuleHubPullFromFacebook  = "hub-fb-pull"    // retrieve group pictures back into the hub
	RuleHubPullComments      = "hub-fb-comments"
	RuleHubPullTags          = "hub-fb-tags"
)

// Hub is the aggregation peer of the demo (the "sigmod" peer hosted on the
// Webdam cloud): it stores the shared picture pool and the registry of
// Wepic users, and bridges to the Facebook group wrapper.
type Hub struct {
	p      *peer.Peer
	fbPeer string
}

// HubOptions configures a hub.
type HubOptions struct {
	// FacebookPeer, when non-empty, names the Facebook group wrapper peer
	// (the demo's SigmodFB); the publication and retrieval rules of §4 are
	// installed.
	FacebookPeer string
}

// NewHub creates the hub peer named name.
func NewHub(n *peer.Network, name string, opts HubOptions) (*Hub, error) {
	p, err := n.NewPeer(peer.Config{Name: name})
	if err != nil {
		return nil, err
	}
	h := &Hub{p: p, fbPeer: opts.FacebookPeer}
	decls := []struct {
		name string
		kind ast.RelKind
		cols []string
	}{
		{"pictures", ast.Extensional, []string{"id", "name", "owner", "data"}},
		{"attendees", ast.Extensional, []string{"name"}},
		{"comments", ast.Extensional, []string{"id", "author", "text"}},
		{"tags", ast.Extensional, []string{"id", "person"}},
	}
	for _, d := range decls {
		if err := p.DeclareRelation(d.name, d.kind, d.cols...); err != nil {
			return nil, err
		}
	}
	if opts.FacebookPeer != "" {
		if err := h.installFacebookRules(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *Hub) installFacebookRules() error {
	me, fb := h.p.Name(), h.fbPeer
	add := func(id, src string) error {
		r, err := parser.ParseRule(src)
		if err != nil {
			return fmt.Errorf("wepic: built-in hub rule %s: %w", id, err)
		}
		r.ID = id
		_, err = h.p.AddRuleAST(r)
		return err
	}
	// §4: "the following rule is used by the sigmod peer to automatically
	// publish, on the Facebook group of sigmod, the pictures belonging to
	// sigmod attendees who have authorized this action". Note the
	// delegation to $owner for the authorization check.
	if err := add(RuleHubPublishToFacebook, fmt.Sprintf(
		`pictures@%[2]s($id,$name,$owner,$data) :-
			pictures@%[1]s($id,$name,$owner,$data),
			authorized@$owner("facebook",$id,$owner);`, me, fb)); err != nil {
		return err
	}
	// §4: "Conversely, the sigmod peer will automatically retrieve the
	// pictures with their comments and tags from the Facebook group and
	// publish them to sigmod peer."
	if err := add(RuleHubPullFromFacebook, fmt.Sprintf(
		`pictures@%[1]s($id,$name,$owner,$data) :- pictures@%[2]s($id,$name,$owner,$data);`, me, fb)); err != nil {
		return err
	}
	if err := add(RuleHubPullComments, fmt.Sprintf(
		`comments@%[1]s($id,$author,$text) :- comments@%[2]s($id,$author,$text);`, me, fb)); err != nil {
		return err
	}
	return add(RuleHubPullTags, fmt.Sprintf(
		`tags@%[1]s($id,$person) :- tags@%[2]s($id,$person);`, me, fb))
}

// Peer returns the underlying WebdamLog peer.
func (h *Hub) Peer() *peer.Peer { return h.p }

// Register records an attendee in the hub's user registry ("the sigmod
// peer, which stores the list of registered Wepic users").
func (h *Hub) Register(attendee string) error {
	return h.p.Insert(ast.NewFact("attendees", h.p.Name(), value.Str(attendee)))
}

// Attendees returns the registered attendee names, sorted.
func (h *Hub) Attendees() []string {
	var out []string
	for _, t := range h.p.Query("attendees") {
		out = append(out, t[0].StringVal())
	}
	sort.Strings(out)
	return out
}

// Pictures returns the shared picture pool, sorted by owner then id.
func (h *Hub) Pictures() []Picture {
	return picturesOf(h.p, "pictures")
}

// parseRule is a tiny indirection so wepic.go can parse without importing
// parser twice under different names.
func parseRule(src string) (ast.Rule, error) { return parser.ParseRule(src) }
