// Package wrappers adapts external services to WebdamLog peers, following
// the paper's wrapper architecture (§2): "A wrapper to some existing system
// X provides software that exports to WebdamLog one or more relations
// corresponding to the data in X, as well as rules to access/update this
// data."
//
// A wrapper is an ordinary peer whose extensional relations mirror the
// external service. Before each stage the wrapper pulls the service state
// as a batch of inserts (peer.Hooks.BeforeStage), which the peer ingests
// like any other update: rows it already holds are no-ops, new rows are the
// stage's deltas, so rules and delegations evaluated at the wrapper see
// fresh data and its views stay incrementally maintained. After each stage
// it pushes rows that rules or remote peers wrote into its relations back to
// the service. Because mirrored relations treat the service as the source of
// truth, pushes are picked up again on the next pull under the service's
// canonical identifiers.
package wrappers

import (
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/email"
	"repro/internal/engine"
	"repro/internal/facebook"
	"repro/internal/peer"
	"repro/internal/value"
)

// FacebookGroupPeer exposes one Facebook group (the demo's SigmodFB) as a
// peer with three relations:
//
//	pictures@<name>(id, name, owner, data)
//	comments@<name>(id, author, text)
//	tags@<name>(id, person)
//
// Rows inserted by rules (e.g. the sigmod peer's publication rule) are
// posted to the group; photos, comments and tags added on the service side
// appear as facts.
//
// The service assigns its own photo identifiers, so the wrapper maintains a
// bidirectional id mapping: a photo pushed from the relations keeps its
// WebdamLog id in the relations (comments and tags pulled from the service
// are translated back to it), while photos native to the service enter the
// relations under their service id.
type FacebookGroupPeer struct {
	p     *peer.Peer
	svc   *facebook.Service
	group string

	mu      sync.Mutex
	idByKey map[string]int64 // owner+"\x00"+name -> relation-side id
	svcByID map[int64]int64  // relation-side id -> service id
	idBySvc map[int64]int64  // service id -> relation-side id
}

// NewFacebookGroupPeer creates the wrapper peer on the given network.
func NewFacebookGroupPeer(n *peer.Network, name string, svc *facebook.Service, group string) (*FacebookGroupPeer, error) {
	p, err := n.NewPeer(peer.Config{Name: name})
	if err != nil {
		return nil, err
	}
	w := &FacebookGroupPeer{
		p: p, svc: svc, group: group,
		idByKey: make(map[string]int64),
		svcByID: make(map[int64]int64),
		idBySvc: make(map[int64]int64),
	}
	if err := w.declare(); err != nil {
		return nil, err
	}
	p.SetHooks(w)
	return w, nil
}

func (w *FacebookGroupPeer) declare() error {
	if err := w.p.DeclareRelation("pictures", ast.Extensional, "id", "name", "owner", "data"); err != nil {
		return err
	}
	if err := w.p.DeclareRelation("comments", ast.Extensional, "id", "author", "text"); err != nil {
		return err
	}
	return w.p.DeclareRelation("tags", ast.Extensional, "id", "person")
}

// Peer returns the underlying WebdamLog peer.
func (w *FacebookGroupPeer) Peer() *peer.Peer { return w.p }

// Sync pokes the wrapper so its next stage pulls fresh service state; call
// it after mutating the service out-of-band.
func (w *FacebookGroupPeer) Sync() { w.p.Poke() }

// BeforeStage implements peer.Hooks: pull the service into the relations,
// translating service photo ids to relation-side ids.
func (w *FacebookGroupPeer) BeforeStage(p *peer.Peer, pull *engine.Batch) error {
	photos, err := w.svc.Photos(w.group)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ph := range photos {
		key := ph.Owner + "\x00" + ph.Name
		relID, known := w.idByKey[key]
		if !known {
			// Native service photo: adopt the service id.
			relID = ph.ID
			w.idByKey[key] = relID
			w.svcByID[relID] = ph.ID
			w.idBySvc[ph.ID] = relID
		}
		pull.Insert(ast.NewFact("pictures", p.Name(),
			value.Int(relID), value.Str(ph.Name), value.Str(ph.Owner), value.Blob(ph.Data)))
	}
	svcComments, err := w.svc.Comments(w.group)
	if err != nil {
		return err
	}
	for _, c := range svcComments {
		relID, ok := w.idBySvc[c.PhotoID]
		if !ok {
			continue // photo not mirrored yet; next pull catches up
		}
		pull.Insert(ast.NewFact("comments", p.Name(), value.Int(relID), value.Str(c.Author), value.Str(c.Text)))
	}
	svcTags, err := w.svc.Tags(w.group)
	if err != nil {
		return err
	}
	for _, tg := range svcTags {
		relID, ok := w.idBySvc[tg.PhotoID]
		if !ok {
			continue
		}
		pull.Insert(ast.NewFact("tags", p.Name(), value.Int(relID), value.Str(tg.Person)))
	}
	return nil
}

// AfterStage implements peer.Hooks: push relation rows the service does not
// have yet, recording the id mapping for future pulls.
func (w *FacebookGroupPeer) AfterStage(p *peer.Peer, _ *peer.StageReport) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	pics := p.Store().MustGet("pictures", p.Name())
	posted := false
	for _, t := range pics.Tuples() {
		relID, name, owner := t[0].IntVal(), t[1].StringVal(), t[2].StringVal()
		key := owner + "\x00" + name
		if _, known := w.idByKey[key]; known {
			continue // already on the service (pushed earlier or native)
		}
		svcID, err := w.svc.PostPhoto(w.group, owner, name, t[3].BlobVal())
		if err != nil {
			return fmt.Errorf("wrappers: posting %q to group %q: %w", name, w.group, err)
		}
		w.idByKey[key] = relID
		w.svcByID[relID] = svcID
		w.idBySvc[svcID] = relID
		posted = true
	}
	comments := p.Store().MustGet("comments", p.Name())
	for _, t := range comments.Tuples() {
		svcID, ok := w.svcByID[t[0].IntVal()]
		if !ok {
			continue // comment on an unknown photo; retried after the photo lands
		}
		// AddComment is idempotent, so re-pushing mirrored rows is harmless.
		if err := w.svc.AddComment(w.group, svcID, t[1].StringVal(), t[2].StringVal()); err != nil {
			continue
		}
	}
	tags := p.Store().MustGet("tags", p.Name())
	for _, t := range tags.Tuples() {
		svcID, ok := w.svcByID[t[0].IntVal()]
		if !ok {
			continue
		}
		if err := w.svc.AddTag(w.group, svcID, t[1].StringVal()); err != nil {
			continue
		}
	}
	if posted {
		// Pull the service's view of what we just posted.
		p.Poke()
	}
	return nil
}

// FacebookUserPeer exposes one user's view of the service, exactly the
// paper's example: "our wrapper will simulate a peer ÉmilienFB with two
// relations: friends@ÉmilienFB($userID, $friendName) and
// pictures@ÉmilienFB($picID, $owner, $URL)". It is pull-only.
type FacebookUserPeer struct {
	p      *peer.Peer
	svc    *facebook.Service
	user   string
	groups []string
}

// NewFacebookUserPeer creates the wrapper peer for a user's data across the
// given groups.
func NewFacebookUserPeer(n *peer.Network, name string, svc *facebook.Service, user string, groups ...string) (*FacebookUserPeer, error) {
	p, err := n.NewPeer(peer.Config{Name: name})
	if err != nil {
		return nil, err
	}
	w := &FacebookUserPeer{p: p, svc: svc, user: user, groups: groups}
	if err := p.DeclareRelation("friends", ast.Extensional, "userID", "friendName"); err != nil {
		return nil, err
	}
	if err := p.DeclareRelation("pictures", ast.Extensional, "picID", "owner", "url"); err != nil {
		return nil, err
	}
	p.SetHooks(w)
	return w, nil
}

// Peer returns the underlying WebdamLog peer.
func (w *FacebookUserPeer) Peer() *peer.Peer { return w.p }

// Sync pokes the wrapper to refresh on its next stage.
func (w *FacebookUserPeer) Sync() { w.p.Poke() }

// BeforeStage implements peer.Hooks.
func (w *FacebookUserPeer) BeforeStage(p *peer.Peer, pull *engine.Batch) error {
	friends, err := w.svc.Friends(w.user)
	if err != nil {
		return err
	}
	for _, f := range friends {
		pull.Insert(ast.NewFact("friends", p.Name(), value.Str(w.user), value.Str(f.Name)))
	}
	for _, g := range w.groups {
		photos, err := w.svc.Photos(g)
		if err != nil {
			return err
		}
		for _, ph := range photos {
			pull.Insert(ast.NewFact("pictures", p.Name(), value.Int(ph.ID), value.Str(ph.Owner), value.Str(ph.URL)))
		}
	}
	return nil
}

// AfterStage implements peer.Hooks (no push: this wrapper is read-only).
func (w *FacebookUserPeer) AfterStage(*peer.Peer, *peer.StageReport) error { return nil }

// EmailPeer exposes the mail server as a peer with two relations:
//
//	mail@<name>(to, subject, name, id, owner) — inserting a fact sends mail
//	inbox@<name>(to, from, subject)           — mirror of delivered mail
//
// The Wepic transfer rule routes picture announcements here when an
// attendee's preferred protocol is "email".
type EmailPeer struct {
	p   *peer.Peer
	svc *email.Server
}

// NewEmailPeer creates the mail wrapper peer.
func NewEmailPeer(n *peer.Network, name string, svc *email.Server) (*EmailPeer, error) {
	p, err := n.NewPeer(peer.Config{Name: name})
	if err != nil {
		return nil, err
	}
	w := &EmailPeer{p: p, svc: svc}
	if err := p.DeclareRelation("mail", ast.Extensional, "to", "subject", "name", "id", "owner"); err != nil {
		return nil, err
	}
	if err := p.DeclareRelation("inbox", ast.Extensional, "to", "from", "subject"); err != nil {
		return nil, err
	}
	p.SetHooks(w)
	return w, nil
}

// Peer returns the underlying WebdamLog peer.
func (w *EmailPeer) Peer() *peer.Peer { return w.p }

// Sync pokes the wrapper to refresh on its next stage.
func (w *EmailPeer) Sync() { w.p.Poke() }

// BeforeStage implements peer.Hooks: mirror delivered mail into inbox.
func (w *EmailPeer) BeforeStage(p *peer.Peer, pull *engine.Batch) error {
	for _, user := range w.svc.Mailboxes() {
		msgs, err := w.svc.Inbox(user)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			pull.Insert(ast.NewFact("inbox", p.Name(), value.Str(m.To), value.Str(m.From), value.Str(m.Subject)))
		}
	}
	return nil
}

// AfterStage implements peer.Hooks: send mail for every row of mail@.
// The server deduplicates, so re-pushing already-sent rows is harmless.
func (w *EmailPeer) AfterStage(p *peer.Peer, rep *peer.StageReport) error {
	mail := p.Store().MustGet("mail", p.Name())
	for _, t := range mail.Tuples() {
		to, subject := t[0].StringVal(), t[1].StringVal()
		name, owner := t[2].StringVal(), t[4].StringVal()
		body := fmt.Sprintf("Picture %q (id %s) shared by %s via Wepic", name, t[3].String(), owner)
		if _, err := w.svc.Send(owner, to, subject, body, nil); err != nil {
			rep.Errors = append(rep.Errors, fmt.Errorf("wrappers: sending mail to %s: %w", to, err))
		}
	}
	return nil
}
