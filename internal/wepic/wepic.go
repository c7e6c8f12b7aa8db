// Package wepic implements the paper's demonstration application: a
// distributed conference picture manager built from a small set of
// WebdamLog rules (§3). Attendees run a Wepic peer holding their pictures;
// a hub peer ("sigmod") aggregates; wrappers bridge to Facebook and e-mail.
//
// The package wires the exact rules printed in the paper:
//
//	attendeePictures@me($id,$name,$owner,$data) :-
//	    selectedAttendee@me($attendee),
//	    pictures@$attendee($id,$name,$owner,$data)
//
//	$protocol@$attendee($attendee,$name,$id,$owner) :-
//	    selectedAttendee@me($attendee),
//	    communicate@$attendee($protocol),
//	    selectedPictures@me($name,$id,$owner)
//
//	pictures@SigmodFB($id,$name,$owner,$data) :-
//	    pictures@sigmod($id,$name,$owner,$data),
//	    authorized@$owner("facebook",$id,$owner)
//
// plus the supporting plumbing rules (protocol inboxes, e-mail forwarding,
// publication to the hub) that the demo describes in prose.
package wepic

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/peer"
	"repro/internal/value"
)

// Rule ids assigned to the built-in rules of an attendee peer.
const (
	RuleViewAttendeePictures = "wepic-view"     // the §2/§3 view rule
	RuleTransferPictures     = "wepic-transfer" // the §3 transfer rule
	RuleFetchAnnounced       = "wepic-fetch"    // pull content for announced pictures
	RuleForwardEmail         = "wepic-email"    // forward email-protocol announcements to the mail wrapper
	RulePublishToHub         = "wepic-publish"  // guarded publication to the hub peer
)

// Options configures an attendee's Wepic peer.
type Options struct {
	// Hub, when non-empty, is the aggregation peer (the paper's "sigmod"):
	// pictures authorized for it are published automatically.
	Hub string
	// MailPeer, when non-empty, names the e-mail wrapper peer used when
	// another attendee prefers the "email" transfer protocol.
	MailPeer string
	// Policy controls incoming delegations (nil accepts everything; the
	// demo uses acl.NewTrustPolicy(hub)).
	Policy acl.Policy
}

// Picture is one photo as stored in a pictures relation.
type Picture struct {
	ID    int64
	Name  string
	Owner string
	Data  []byte
}

// Ranked is a picture with its aggregated annotations, for the "select and
// rank photos based on their annotations" functionality.
type Ranked struct {
	Picture
	Ratings  int
	AvgStars float64
	Comments int
	Tags     []string
}

// App is one attendee's Wepic application instance over a WebdamLog peer.
type App struct {
	p    *peer.Peer
	opts Options

	mu  sync.Mutex
	seq int64
}

// New creates an attendee's Wepic peer named name on the network, declares
// the application schema and installs the default rules.
func New(n *peer.Network, name string, opts Options) (*App, error) {
	p, err := n.NewPeer(peer.Config{Name: name, Policy: opts.Policy})
	if err != nil {
		return nil, err
	}
	a := &App{p: p, opts: opts}
	// Picture ids must be distinctive across attendees (the paper shows
	// ids like 32 in the shared pictures@sigmod pool; the rate relation is
	// keyed by id). Derive each peer's id space from its name.
	h := fnv.New32a()
	h.Write([]byte(name))
	a.seq = int64(h.Sum32()%100_000) * 1_000
	if err := a.declareSchema(); err != nil {
		return nil, err
	}
	if err := a.installRules(); err != nil {
		return nil, err
	}
	return a, nil
}

// Peer returns the underlying WebdamLog peer.
func (a *App) Peer() *peer.Peer { return a.p }

// Name returns the attendee/peer name.
func (a *App) Name() string { return a.p.Name() }

func (a *App) declareSchema() error {
	me := a.p
	decls := []struct {
		name string
		kind ast.RelKind
		cols []string
	}{
		{"pictures", ast.Extensional, []string{"id", "name", "owner", "data"}},
		{"selectedAttendee", ast.Extensional, []string{"attendee"}},
		{"selectedPictures", ast.Extensional, []string{"name", "id", "owner"}},
		{"communicate", ast.Extensional, []string{"protocol"}},
		{"attendeePictures", ast.Intensional, []string{"id", "name", "owner", "data"}},
		{"rate", ast.Extensional, []string{"id", "stars"}},
		{"comment", ast.Extensional, []string{"id", "author", "text"}},
		{"tag", ast.Extensional, []string{"id", "person"}},
		{"authorized", ast.Extensional, []string{"target", "id", "owner"}},
		// Protocol inboxes for the transfer rule's variable head relation.
		{"wepic", ast.Extensional, []string{"attendee", "name", "id", "owner"}},
		{"email", ast.Extensional, []string{"attendee", "name", "id", "owner"}},
		{"facebook", ast.Extensional, []string{"attendee", "name", "id", "owner"}},
	}
	for _, d := range decls {
		if err := me.DeclareRelation(d.name, d.kind, d.cols...); err != nil {
			return err
		}
	}
	return nil
}

func (a *App) installRules() error {
	me := a.p.Name()
	add := func(id, src string) error {
		_, err := a.p.AddRuleAST(mustRule(id, src))
		return err
	}
	// The paper's view rule (§2 and §3).
	if err := add(RuleViewAttendeePictures, fmt.Sprintf(
		`attendeePictures@%[1]s($id,$name,$owner,$data) :-
			selectedAttendee@%[1]s($attendee),
			pictures@$attendee($id,$name,$owner,$data);`, me)); err != nil {
		return err
	}
	// The paper's transfer rule (§3), with variable relation AND peer in
	// the head.
	if err := add(RuleTransferPictures, fmt.Sprintf(
		`$protocol@$attendee($attendee,$name,$id,$owner) :-
			selectedAttendee@%[1]s($attendee),
			communicate@$attendee($protocol),
			selectedPictures@%[1]s($name,$id,$owner);`, me)); err != nil {
		return err
	}
	// When a picture is announced into the local wepic inbox, fetch its
	// content from the owner (a delegation to $owner).
	if err := add(RuleFetchAnnounced, fmt.Sprintf(
		`pictures@%[1]s($id,$name,$owner,$data) :-
			wepic@%[1]s($rcpt,$name,$id,$owner),
			pictures@$owner($id,$name,$owner,$data);`, me)); err != nil {
		return err
	}
	if a.opts.MailPeer != "" {
		if err := add(RuleForwardEmail, fmt.Sprintf(
			`mail@%[2]s("%[1]s", $name, $name, $id, $owner) :-
				email@%[1]s($rcpt,$name,$id,$owner);`, me, a.opts.MailPeer)); err != nil {
			return err
		}
	}
	if a.opts.Hub != "" {
		// "a photo uploaded by Émilien into his local relation
		// pictures@Émilien is instantly published to pictures@sigmod" —
		// guarded by the authorized relation, which the user populates.
		if err := add(RulePublishToHub, fmt.Sprintf(
			`pictures@%[2]s($id,$name,$owner,$data) :-
				pictures@%[1]s($id,$name,$owner,$data),
				authorized@%[1]s("%[2]s",$id,$owner);`, me, a.opts.Hub)); err != nil {
			return err
		}
	}
	return nil
}

func mustRule(id, src string) ast.Rule {
	r, err := parseRule(src)
	if err != nil {
		panic(fmt.Sprintf("wepic: built-in rule %s does not parse: %v", id, err))
	}
	r.ID = id
	return r
}

// Upload adds a picture to the attendee's local pictures relation and
// returns its id (unique per owner).
func (a *App) Upload(name string, data []byte) (int64, error) {
	a.mu.Lock()
	a.seq++
	id := a.seq
	a.mu.Unlock()
	err := a.p.Insert(ast.NewFact("pictures", a.Name(),
		value.Int(id), value.Str(name), value.Str(a.Name()), value.Blob(data)))
	if err != nil {
		return 0, err
	}
	return id, nil
}

// UploadAll adds several pictures as one atomic batch — one store
// transaction and one fixpoint stage instead of one per picture — and
// returns their assigned ids in order.
func (a *App) UploadAll(ctx context.Context, names []string, datas [][]byte) ([]int64, error) {
	if len(names) != len(datas) {
		return nil, fmt.Errorf("wepic: %d names for %d payloads", len(names), len(datas))
	}
	ids := make([]int64, len(names))
	b := engine.NewBatch()
	a.mu.Lock()
	for i, name := range names {
		a.seq++
		ids[i] = a.seq
		b.Insert(ast.NewFact("pictures", a.Name(),
			value.Int(ids[i]), value.Str(name), value.Str(a.Name()), value.Blob(datas[i])))
	}
	a.mu.Unlock()
	if err := a.p.Apply(ctx, b); err != nil {
		return nil, err
	}
	return ids, nil
}

// Watch streams changes to one of the app's relations ("pictures",
// "attendeePictures", …) as fixpoints commit — the live-UI primitive: a
// photo wall repaints on deltas instead of polling Pictures().
func (a *App) Watch(ctx context.Context, rel string) (<-chan peer.Delta, error) {
	return a.p.Subscribe(ctx, rel)
}

// Authorize records that picture id owned by this attendee may be published
// to target ("sigmod", "facebook", …) — the paper's authorized relation.
func (a *App) Authorize(target string, id int64) error {
	return a.p.Insert(ast.NewFact("authorized", a.Name(),
		value.Str(target), value.Int(id), value.Str(a.Name())))
}

// Revoke removes a publication authorization.
func (a *App) Revoke(target string, id int64) error {
	return a.p.Delete(ast.NewFact("authorized", a.Name(),
		value.Str(target), value.Int(id), value.Str(a.Name())))
}

// SelectAttendee highlights an attendee: their pictures appear in
// attendeePictures (via delegation) and they become transfer targets.
func (a *App) SelectAttendee(attendee string) error {
	return a.p.Insert(ast.NewFact("selectedAttendee", a.Name(), value.Str(attendee)))
}

// DeselectAttendee removes the highlight (withdrawing the delegation).
func (a *App) DeselectAttendee(attendee string) error {
	return a.p.Delete(ast.NewFact("selectedAttendee", a.Name(), value.Str(attendee)))
}

// SelectPicture marks one of this attendee's pictures for transfer.
func (a *App) SelectPicture(name string, id int64, owner string) error {
	return a.p.Insert(ast.NewFact("selectedPictures", a.Name(),
		value.Str(name), value.Int(id), value.Str(owner)))
}

// ClearSelectedPictures unmarks all pictures selected for transfer.
func (a *App) ClearSelectedPictures() error {
	for _, t := range a.p.Query("selectedPictures") {
		if err := a.p.Delete(ast.Fact{Rel: "selectedPictures", Peer: a.Name(), Args: t}); err != nil {
			return err
		}
	}
	return nil
}

// SetProtocol declares this attendee's preferred transfer protocol
// ("wepic", "email" or "facebook") in the communicate relation.
func (a *App) SetProtocol(protocol string) error {
	for _, t := range a.p.Query("communicate") {
		if err := a.p.Delete(ast.Fact{Rel: "communicate", Peer: a.Name(), Args: t}); err != nil {
			return err
		}
	}
	return a.p.Insert(ast.NewFact("communicate", a.Name(), value.Str(protocol)))
}

// Rate stores a star rating for picture id at its owner's peer, as in the
// paper's rate@$owner($id, 5) pattern.
func (a *App) Rate(owner string, id int64, stars int64) error {
	return a.p.Insert(ast.NewFact("rate", owner, value.Int(id), value.Int(stars)))
}

// Comment attaches a comment to picture id at its owner's peer.
func (a *App) Comment(owner string, id int64, text string) error {
	return a.p.Insert(ast.NewFact("comment", owner, value.Int(id), value.Str(a.Name()), value.Str(text)))
}

// Tag records that person appears in picture id, at the owner's peer.
func (a *App) Tag(owner string, id int64, person string) error {
	return a.p.Insert(ast.NewFact("tag", owner, value.Int(id), value.Str(person)))
}

// Pictures returns the attendee's local pictures, sorted by id.
func (a *App) Pictures() []Picture {
	return picturesOf(a.p, "pictures")
}

// AttendeePictures returns the contents of the attendeePictures view
// (pictures of all selected attendees, as of the last stage).
func (a *App) AttendeePictures() []Picture {
	return picturesOf(a.p, "attendeePictures")
}

func picturesOf(p *peer.Peer, rel string) []Picture {
	var out []Picture
	for _, t := range p.Query(rel) {
		if len(t) != 4 {
			continue
		}
		out = append(out, Picture{
			ID:    t[0].IntVal(),
			Name:  t[1].StringVal(),
			Owner: t[2].StringVal(),
			Data:  t[3].BlobVal(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Ranked returns the attendee's local pictures joined with their local
// annotations, ordered by average stars (descending), then rating count,
// then id — the "select and rank photos based on their annotations"
// functionality of §3.
func (a *App) Ranked() []Ranked {
	type agg struct {
		sum, n   int64
		comments int
		tags     []string
	}
	byID := map[int64]*agg{}
	get := func(id int64) *agg {
		if v, ok := byID[id]; ok {
			return v
		}
		v := &agg{}
		byID[id] = v
		return v
	}
	for _, t := range a.p.Query("rate") {
		if len(t) == 2 {
			v := get(t[0].IntVal())
			v.sum += t[1].IntVal()
			v.n++
		}
	}
	for _, t := range a.p.Query("comment") {
		if len(t) == 3 {
			get(t[0].IntVal()).comments++
		}
	}
	for _, t := range a.p.Query("tag") {
		if len(t) == 2 {
			v := get(t[0].IntVal())
			v.tags = append(v.tags, t[1].StringVal())
		}
	}
	var out []Ranked
	for _, pic := range a.Pictures() {
		r := Ranked{Picture: pic}
		if v, ok := byID[pic.ID]; ok {
			r.Ratings = int(v.n)
			if v.n > 0 {
				r.AvgStars = float64(v.sum) / float64(v.n)
			}
			r.Comments = v.comments
			sort.Strings(v.tags)
			r.Tags = v.tags
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AvgStars != out[j].AvgStars {
			return out[i].AvgStars > out[j].AvgStars
		}
		if out[i].Ratings != out[j].Ratings {
			return out[i].Ratings > out[j].Ratings
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// PendingDelegations lists delegations awaiting the user's approval.
func (a *App) PendingDelegations() []acl.PendingDelegation {
	return a.p.Controller().Pending()
}

// AcceptDelegation approves a pending delegation by queue id.
func (a *App) AcceptDelegation(id int) error { return a.p.Controller().Accept(id) }

// RejectDelegation drops a pending delegation by queue id.
func (a *App) RejectDelegation(id int) error { return a.p.Controller().Reject(id) }
