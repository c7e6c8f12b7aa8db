// Command wdlbench regenerates every experiment in docs/EXPERIMENTS.md,
// which describes each experiment id, what it measures and its expected
// shape.
//
// The SIGMOD 2013 demonstration paper contains no quantitative tables; its
// figures are the Wepic UI (Fig. 1), the peer topology (Fig. 2) and the
// delegation-control interface (Fig. 3). wdlbench therefore reproduces:
//
//	e1..e5 — the demonstrated behaviours, as scripted, checked scenarios
//	p2..p11 — performance series quantifying the mechanisms the paper
//	         relies on (stage pipeline, delegation, distribution,
//	         transports, batching, async delivery, anti-entropy resync,
//	         the daemon service surface under load, swarm scale); p1 and
//	         p9 measured evaluation modes that no longer exist
//	i1     — incremental view maintenance vs naive per-stage recomputation
//	a1     — ablation of the remaining design choice (WAL)
//
// Usage:
//
//	wdlbench [-exp all|e1,e3,p2,p10,i1,...] [-quick]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/acl"
	"repro/internal/bench"
	"repro/internal/email"
	"repro/internal/facebook"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/wepic"
	"repro/internal/wrappers"
)

var quick bool

// expResult is one experiment's machine-readable outcome (-json). Metrics
// are whatever headline numbers the experiment chose to record via metric().
type expResult struct {
	ID      string             `json:"id"`
	Name    string             `json:"name"`
	Status  string             `json:"status"`
	Error   string             `json:"error,omitempty"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// curMetrics collects the running experiment's headline numbers; the main
// loop swaps in a fresh map before each run.
var curMetrics map[string]float64

// metric records one headline number of the running experiment for -json.
func metric(key string, v float64) {
	if curMetrics != nil {
		curMetrics[key] = v
	}
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e5, p2..p8, p10, p11, i1, a1) or 'all'")
	jsonPath := flag.String("json", "", "write machine-readable per-experiment results (JSON) to this file")
	flag.BoolVar(&quick, "quick", false, "smaller parameter sweeps")
	flag.Parse()

	all := []struct {
		id   string
		name string
		run  func() error
	}{
		{"e1", "E1: Wepic functionality (Figure 1, §3 items 1-5)", runE1},
		{"e2", "E2: Figure 2 topology — Facebook interaction (§4)", runE2},
		{"e3", "E3: control of delegation (Figure 3, §4)", runE3},
		{"e4", "E4: customizing rules (§4)", runE4},
		{"e5", "E5: the §2 delegation example, verbatim", runE5},
		{"p2", "P2: stage latency decomposition", runP2},
		{"p3", "P3: delegation fan-out vs pre-installed rules", runP3},
		{"p4", "P4: distributed (delegated) vs centralized join", runP4},
		{"p5", "P5: transport throughput — bus vs TCP", runP5},
		{"p6", "P6: update path — per-fact Insert vs atomic Batch (v2 API)", runP6},
		{"p7", "P7: outbox — stage latency vs link RTT; convergence under faults", runP7},
		{"p8", "P8: anti-entropy resync — receiver restart recovery; digest vs full re-send", runP8},
		{"p10", "P10: daemon under load — concurrent applies vs bounded queues", runP10},
		{"p11", "P11: swarm scale — interned, multiplexed follower graph at 10k+ peers", runP11},
		{"i1", "I1: incremental view maintenance vs naive recompute", runI1},
		{"a1", "A1: ablation — WAL", runA1},
	}
	known := map[string]bool{}
	ids := make([]string, 0, len(all))
	for _, e := range all {
		known[e.id] = true
		ids = append(ids, e.id)
	}
	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if id == "" {
				continue
			}
			if !known[id] {
				fmt.Fprintf(os.Stderr, "wdlbench: unknown experiment %q (known: %s)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
		if len(want) == 0 {
			fmt.Fprintf(os.Stderr, "wdlbench: -exp selected no experiments (known: %s)\n", strings.Join(ids, ", "))
			os.Exit(2)
		}
	}
	failed := 0
	var results []expResult
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("\n================================================================\n%s\n================================================================\n", e.name)
		curMetrics = map[string]float64{}
		start := time.Now()
		err := e.run()
		r := expResult{
			ID:      e.id,
			Name:    e.name,
			Status:  "pass",
			Seconds: time.Since(start).Seconds(),
		}
		if len(curMetrics) > 0 {
			r.Metrics = curMetrics
		}
		if err != nil {
			fmt.Printf("!! %s FAILED: %v\n", e.id, err)
			failed++
			r.Status = "fail"
			r.Error = err.Error()
		}
		results = append(results, r)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(struct {
			Quick   bool        `json:"quick"`
			Results []expResult `json:"results"`
		}{Quick: quick, Results: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wdlbench: writing %s: %v\n", *jsonPath, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// demo assembles the Figure 2 deployment.
type demo struct {
	net     *peer.Network
	emilien *wepic.App
	jules   *wepic.App
	hub     *wepic.Hub
	fb      *facebook.Service
	fbGroup *wrappers.FacebookGroupPeer
	mail    *email.Server
}

func buildDemo() (*demo, error) {
	d := &demo{net: peer.NewNetwork(), fb: facebook.NewService(), mail: email.NewServer()}
	for _, u := range [][2]string{{"emilien", "Emilien"}, {"jules", "Jules"}} {
		if err := d.fb.AddUser(u[0], u[1]); err != nil {
			return nil, err
		}
	}
	if err := d.fb.CreateGroup("sigmodgroup", "SIGMOD 2013"); err != nil {
		return nil, err
	}
	for _, u := range []string{"emilien", "jules"} {
		if err := d.fb.JoinGroup(u, "sigmodgroup"); err != nil {
			return nil, err
		}
	}
	var err error
	if d.fbGroup, err = wrappers.NewFacebookGroupPeer(d.net, "sigmodfb", d.fb, "sigmodgroup"); err != nil {
		return nil, err
	}
	if _, err = wrappers.NewEmailPeer(d.net, "mailhub", d.mail); err != nil {
		return nil, err
	}
	if d.hub, err = wepic.NewHub(d.net, "sigmod", wepic.HubOptions{FacebookPeer: "sigmodfb"}); err != nil {
		return nil, err
	}
	opts := wepic.Options{Hub: "sigmod", MailPeer: "mailhub", Policy: acl.NewTrustPolicy("sigmod")}
	if d.emilien, err = wepic.New(d.net, "emilien", opts); err != nil {
		return nil, err
	}
	if d.jules, err = wepic.New(d.net, "jules", opts); err != nil {
		return nil, err
	}
	for _, a := range []string{"emilien", "jules"} {
		if err := d.hub.Register(a); err != nil {
			return nil, err
		}
	}
	return d, d.run()
}

func (d *demo) run() error {
	_, _, err := d.net.RunToQuiescence(context.Background(), 500)
	return err
}

// acceptAll approves pending delegations at both attendees until none remain.
func (d *demo) acceptAll() error {
	for {
		any := false
		for _, a := range []*wepic.App{d.emilien, d.jules} {
			for _, pd := range a.PendingDelegations() {
				if err := a.AcceptDelegation(pd.ID); err != nil {
					return err
				}
				any = true
			}
		}
		if !any {
			return nil
		}
		if err := d.run(); err != nil {
			return err
		}
	}
}

type check struct {
	what string
	ok   bool
	note string
}

func printChecks(checks []check) error {
	bad := 0
	fmt.Printf("| %-58s | %-6s | %s\n", "check", "status", "observed")
	fmt.Printf("|%s|%s|%s\n", strings.Repeat("-", 60), strings.Repeat("-", 8), strings.Repeat("-", 40))
	for _, c := range checks {
		status := "PASS"
		if !c.ok {
			status = "FAIL"
			bad++
		}
		fmt.Printf("| %-58s | %-6s | %s\n", c.what, status, c.note)
	}
	if bad > 0 {
		return fmt.Errorf("%d checks failed", bad)
	}
	return nil
}

func runE1() error {
	d, err := buildDemo()
	if err != nil {
		return err
	}
	var checks []check

	// 1. Upload a picture.
	id, err := d.emilien.Upload("sea.jpg", []byte("jpegbytes"))
	if err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	pics := d.emilien.Pictures()
	checks = append(checks, check{"1. upload a picture from a file",
		len(pics) == 1 && pics[0].Name == "sea.jpg",
		fmt.Sprintf("pictures@emilien has %d rows", len(pics))})

	// 2. View pictures of a particular attendee.
	if err := d.jules.SelectAttendee("emilien"); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	ap := d.jules.AttendeePictures()
	checks = append(checks, check{"2. view pictures provided by a particular attendee",
		len(ap) == 1 && ap[0].Owner == "emilien",
		fmt.Sprintf("attendeePictures@jules has %d rows", len(ap))})

	// 3a. Transfer by the recipient's preferred protocol (email).
	if err := d.emilien.SetProtocol("email"); err != nil {
		return err
	}
	jid, err := d.jules.Upload("talk.jpg", []byte("slides"))
	if err != nil {
		return err
	}
	if err := d.jules.SelectPicture("talk.jpg", jid, "jules"); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	inbox, _ := d.mail.Inbox("emilien")
	checks = append(checks, check{"3a. send pictures by email",
		len(inbox) == 1 && inbox[0].Subject == "talk.jpg",
		fmt.Sprintf("emilien's mailbox has %d messages", len(inbox))})

	// 3b. Get pictures from another peer (the wepic protocol pulls content).
	if err := d.emilien.SetProtocol("wepic"); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	got := false
	for _, p := range d.emilien.Pictures() {
		if p.Name == "talk.jpg" && p.Owner == "jules" {
			got = true
		}
	}
	checks = append(checks, check{"3b. get pictures from another Wepic peer",
		got, fmt.Sprintf("pictures@emilien has %d rows", len(d.emilien.Pictures()))})

	// 4. Annotate: rate, comment, tag.
	if err := d.jules.Rate("emilien", id, 5); err != nil {
		return err
	}
	if err := d.jules.Comment("emilien", id, "superb"); err != nil {
		return err
	}
	if err := d.jules.Tag("emilien", id, "Serge"); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	ranked := d.emilien.Ranked()
	annotated := len(ranked) > 0 && ranked[0].Ratings == 1 && ranked[0].Comments == 1 && len(ranked[0].Tags) == 1
	checks = append(checks, check{"4. annotate pictures with ratings, comments, name tags",
		annotated, fmt.Sprintf("top picture: %d rating(s), %d comment(s), tags=%v",
			ranked[0].Ratings, ranked[0].Comments, ranked[0].Tags)})

	// 5. Select and rank.
	if err := d.jules.Rate("emilien", jid, 2); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	ranked = d.emilien.Ranked()
	checks = append(checks, check{"5. select and rank photos based on their annotations",
		len(ranked) >= 2 && ranked[0].AvgStars >= ranked[1].AvgStars,
		fmt.Sprintf("ranking: %s(%.1f) >= %s(%.1f)", ranked[0].Name, ranked[0].AvgStars, ranked[1].Name, ranked[1].AvgStars)})

	return printChecks(checks)
}

func runE2() error {
	d, err := buildDemo()
	if err != nil {
		return err
	}
	var checks []check
	id, err := d.emilien.Upload("boat.jpg", []byte("bytes"))
	if err != nil {
		return err
	}
	if err := d.emilien.Authorize("sigmod", id); err != nil {
		return err
	}
	if err := d.emilien.Authorize("facebook", id); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	hubPics := d.hub.Pictures()
	checks = append(checks, check{"upload at emilien is instantly published to pictures@sigmod",
		len(hubPics) == 1 && hubPics[0].Name == "boat.jpg",
		fmt.Sprintf("pictures@sigmod: %d rows", len(hubPics))})
	photos, err := d.fb.Photos("sigmodgroup")
	if err != nil {
		return err
	}
	checks = append(checks, check{"…then propagated to pictures@SigmodFB (the group)",
		len(photos) == 1 && photos[0].Owner == "emilien",
		fmt.Sprintf("Facebook group photos: %d", len(photos))})

	// Reverse: comments and tags on Facebook flow back.
	if err := d.fb.AddComment("sigmodgroup", photos[0].ID, "jules", "nice"); err != nil {
		return err
	}
	if err := d.fb.AddTag("sigmodgroup", photos[0].ID, "Emilien"); err != nil {
		return err
	}
	d.fbGroup.Sync()
	if err := d.run(); err != nil {
		return err
	}
	checks = append(checks, check{"comments retrieved from the group into comments@sigmod",
		len(d.hub.Peer().Query("comments")) == 1,
		fmt.Sprintf("comments@sigmod: %d rows", len(d.hub.Peer().Query("comments")))})
	checks = append(checks, check{"tags retrieved from the group into tags@sigmod",
		len(d.hub.Peer().Query("tags")) == 1,
		fmt.Sprintf("tags@sigmod: %d rows", len(d.hub.Peer().Query("tags")))})

	// A Facebook-native photo reaches Wepic users without an FB account.
	if _, err := d.fb.PostPhoto("sigmodgroup", "gerome", "keynote.jpg", []byte{7}); err != nil {
		return err
	}
	d.fbGroup.Sync()
	if err := d.run(); err != nil {
		return err
	}
	found := false
	for _, p := range d.hub.Pictures() {
		if p.Name == "keynote.jpg" {
			found = true
		}
	}
	checks = append(checks, check{"photo posted natively on Facebook surfaces at sigmod",
		found, fmt.Sprintf("pictures@sigmod: %d rows", len(d.hub.Pictures()))})
	return printChecks(checks)
}

func runE3() error {
	d, err := buildDemo()
	if err != nil {
		return err
	}
	var checks []check
	if _, err := d.jules.Upload("pic.jpg", []byte{1}); err != nil {
		return err
	}
	// Émilien installs a rule at Jules' peer by selecting him.
	if err := d.emilien.SelectAttendee("jules"); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	pend := d.jules.PendingDelegations()
	checks = append(checks, check{"delegation from untrusted peer is queued, not installed",
		len(pend) > 0 && len(d.jules.Peer().DelegatedRules()["emilien"]) == 0,
		fmt.Sprintf("%d pending, 0 installed", len(pend))})
	checks = append(checks, check{"no data flows before approval",
		len(d.emilien.AttendeePictures()) == 0,
		fmt.Sprintf("attendeePictures@emilien: %d rows", len(d.emilien.AttendeePictures()))})
	fmt.Println("\npending queue at jules (as shown in Figure 3):")
	for _, pd := range pend {
		fmt.Println("   ", strings.ReplaceAll(pd.String(), "\n", "\n    "))
	}

	for _, pd := range pend {
		if err := d.jules.AcceptDelegation(pd.ID); err != nil {
			return err
		}
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	checks = append(checks, check{"after approval the rule is installed (program changed)",
		len(d.jules.Peer().DelegatedRules()["emilien"]) > 0,
		fmt.Sprintf("%d delegated rules installed", len(d.jules.Peer().DelegatedRules()["emilien"]))})
	checks = append(checks, check{"and the delegated view now flows",
		len(d.emilien.AttendeePictures()) == 1,
		fmt.Sprintf("attendeePictures@emilien: %d rows", len(d.emilien.AttendeePictures()))})

	// Rejection path on a fresh network.
	d2, err := buildDemo()
	if err != nil {
		return err
	}
	if err := d2.emilien.SelectAttendee("jules"); err != nil {
		return err
	}
	if err := d2.run(); err != nil {
		return err
	}
	for _, pd := range d2.jules.PendingDelegations() {
		if err := d2.jules.RejectDelegation(pd.ID); err != nil {
			return err
		}
	}
	if err := d2.run(); err != nil {
		return err
	}
	checks = append(checks, check{"rejecting keeps the program unchanged",
		len(d2.jules.Peer().DelegatedRules()["emilien"]) == 0,
		"0 delegated rules installed"})
	return printChecks(checks)
}

func runE4() error {
	d, err := buildDemo()
	if err != nil {
		return err
	}
	var checks []check
	id1, _ := d.emilien.Upload("a.jpg", []byte{1})
	id2, _ := d.emilien.Upload("b.jpg", []byte{2})
	if err := d.emilien.Rate("emilien", id1, 5); err != nil {
		return err
	}
	if err := d.emilien.Rate("emilien", id2, 3); err != nil {
		return err
	}
	if err := d.jules.SelectAttendee("emilien"); err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	before := d.jules.AttendeePictures()
	checks = append(checks, check{"default rule shows all pictures of the selected attendee",
		len(before) == 2, fmt.Sprintf("%d pictures in the view", len(before))})

	err = d.jules.Peer().ReplaceRule(wepic.RuleViewAttendeePictures, `
		attendeePictures@jules($id,$name,$owner,$data) :-
			selectedAttendee@jules($attendee),
			pictures@$attendee($id,$name,$owner,$data),
			rate@$owner($id, 5);`)
	if err != nil {
		return err
	}
	if err := d.run(); err != nil {
		return err
	}
	if err := d.acceptAll(); err != nil {
		return err
	}
	after := d.jules.AttendeePictures()
	checks = append(checks, check{"customized rule (rating = 5) narrows the view, as in §4",
		len(after) == 1 && after[0].Name == "a.jpg",
		fmt.Sprintf("view now: %d picture(s), first = %s", len(after), after[0].Name)})
	return printChecks(checks)
}

func runE5() error {
	net := peer.NewNetwork()
	jules, err := net.NewPeer(peer.Config{Name: "jules"})
	if err != nil {
		return err
	}
	emilien, err := net.NewPeer(peer.Config{Name: "emilien"})
	if err != nil {
		return err
	}
	if err := emilien.LoadSource(`
		relation extensional pictures@emilien(id, name, owner, data);
		pictures@emilien(1, "sea.jpg", "emilien", 0xCAFE);
	`); err != nil {
		return err
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name, owner, data);
		selectedAttendee@jules("emilien");
		attendeePictures@jules($id,$name,$owner,$data) :-
			selectedAttendee@jules($attendee),
			pictures@$attendee($id,$name,$owner,$data);
	`); err != nil {
		return err
	}
	if _, _, err := net.RunToQuiescence(context.Background(), 100); err != nil {
		return err
	}
	var checks []check
	delegated := emilien.DelegatedRules()["jules"]
	wantResidual := `attendeePictures@jules($id, $name, $owner, $data) :- pictures@emilien($id, $name, $owner, $data)`
	checks = append(checks, check{"evaluation delegates exactly the residual rule printed in §2",
		len(delegated) == 1 && delegated[0].String() == wantResidual,
		fmt.Sprintf("%d residual rule(s) at emilien", len(delegated))})
	if len(delegated) == 1 {
		fmt.Println("\nresidual rule installed at emilien:")
		fmt.Println("   ", delegated[0].String(), ";")
	}
	checks = append(checks, check{"emilien sends all facts of his pictures relation to jules",
		len(jules.Query("attendeePictures")) == 1,
		fmt.Sprintf("attendeePictures@jules: %d rows", len(jules.Query("attendeePictures")))})

	if err := jules.DeleteString(`selectedAttendee@jules("emilien");`); err != nil {
		return err
	}
	if _, _, err := net.RunToQuiescence(context.Background(), 100); err != nil {
		return err
	}
	checks = append(checks, check{"retracting the selectedAttendee fact withdraws the delegation",
		len(emilien.DelegatedRules()["jules"]) == 0 && len(jules.Query("attendeePictures")) == 0,
		"0 delegated rules, empty view"})
	return printChecks(checks)
}

func runP2() error {
	sizes := []int{100, 1000, 10000}
	if quick {
		sizes = []int{100, 1000}
	}
	fmt.Printf("%-12s %12s %12s %12s %12s\n", "facts", "ingest", "fixpoint", "emit", "total")
	for _, n := range sizes {
		d, err := bench.RunStageDecomposition(n)
		if err != nil {
			return err
		}
		total := d.Ingest + d.Fixpoint + d.Emit
		fmt.Printf("%-12d %12v %12v %12v %12v\n", n,
			d.Ingest.Round(time.Microsecond), d.Fixpoint.Round(time.Microsecond),
			d.Emit.Round(time.Microsecond), total.Round(time.Microsecond))
	}
	fmt.Println("\nexpected shape: all three steps scale roughly linearly in the input batch.")
	return nil
}

func runP3() error {
	fans := []int{2, 4, 8, 16, 32, 64}
	if quick {
		fans = []int{2, 8, 32}
	}
	fmt.Printf("%-8s %14s %10s %14s %10s %10s\n", "peers", "delegated", "msgs", "preinstalled", "msgs", "overhead")
	for _, n := range fans {
		d, err := bench.RunDelegationFanout(n, 20)
		if err != nil {
			return err
		}
		p, err := bench.RunPreinstalledFanout(n, 20)
		if err != nil {
			return err
		}
		if d.Collected != n*20 || p.Collected != n*20 {
			return fmt.Errorf("p3: wrong answers: delegated=%d preinstalled=%d want %d", d.Collected, p.Collected, n*20)
		}
		fmt.Printf("%-8d %14v %10d %14v %10d %9.2fx\n", n,
			d.Duration.Round(time.Microsecond), d.Messages,
			p.Duration.Round(time.Microsecond), p.Messages,
			float64(d.Duration)/float64(p.Duration))
	}
	fmt.Println("\nexpected shape: run-time delegation costs within a small constant factor of")
	fmt.Println("statically installed rules — the flexibility is close to free.")
	return nil
}

func runP4() error {
	fans := []int{2, 4, 8, 16}
	if quick {
		fans = []int{4, 16}
	}
	fmt.Printf("%-8s | %12s %12s | %12s %12s | %s\n", "peers", "deleg time", "facts moved", "central time", "facts moved", "reduction")
	for _, n := range fans {
		d, err := bench.RunDistributedJoin(n, 200, 5)
		if err != nil {
			return err
		}
		c, err := bench.RunCentralizedJoin(n, 200, 5)
		if err != nil {
			return err
		}
		if d.Answers != c.Answers {
			return fmt.Errorf("p4: answers differ: %d vs %d", d.Answers, c.Answers)
		}
		fmt.Printf("%-8d | %12v %12d | %12v %12d | %7.1fx fewer facts shipped\n", n,
			d.Duration.Round(time.Microsecond), d.FactsShipped,
			c.Duration.Round(time.Microsecond), c.FactsShipped,
			float64(c.FactsShipped)/float64(d.FactsShipped))
	}
	fmt.Println("\nexpected shape: delegation evaluates in place and ships only matches;")
	fmt.Println("centralizing ships every base fact (the paper's §1 motivation).")
	return nil
}

func runP5() error {
	n := 20000
	if quick {
		n = 2000
	}
	fmt.Printf("%-10s %10s %12s %14s\n", "transport", "payload", "messages/s", "per message")
	for _, payload := range []int{64, 4096} {
		r, err := bench.RunBusThroughput(n, payload)
		if err != nil {
			return err
		}
		perMsg := r.Duration / time.Duration(r.Messages)
		fmt.Printf("%-10s %9dB %12.0f %14v\n", "bus", payload, float64(r.Messages)/r.Duration.Seconds(), perMsg)
	}
	for _, payload := range []int{64, 4096} {
		r, err := bench.RunTCPThroughput(n, payload)
		if err != nil {
			return err
		}
		perMsg := r.Duration / time.Duration(r.Messages)
		fmt.Printf("%-10s %9dB %12.0f %14v\n", "tcp+gob", payload, float64(r.Messages)/r.Duration.Seconds(), perMsg)
	}
	fmt.Println("\nexpected shape: the in-memory bus is orders of magnitude faster; TCP+gob")
	fmt.Println("is the cost of genuine distribution (the demo's laptop/cloud deployment).")
	return nil
}

func runP6() error {
	sizes := []int{1000, 10000, 100000}
	if quick {
		sizes = []int{1000, 10000}
	}
	fmt.Printf("%-10s | %12s %8s | %12s %8s | %s\n", "facts", "per-fact", "stages", "batched", "stages", "speedup")
	for _, n := range sizes {
		perFact, err := bench.RunInsertPath(n, false)
		if err != nil {
			return err
		}
		batched, err := bench.RunInsertPath(n, true)
		if err != nil {
			return err
		}
		if batched.Stages > 2 {
			return fmt.Errorf("p6: batched path ran %d stages, want at most 2", batched.Stages)
		}
		fmt.Printf("%-10d | %12v %8d | %12v %8d | %6.1fx\n", n,
			perFact.Duration.Round(time.Microsecond), perFact.Stages,
			batched.Duration.Round(time.Microsecond), batched.Stages,
			float64(perFact.Duration)/float64(batched.Duration))
	}
	fmt.Println("\n-- remote updates over TCP: n framed messages vs one --")
	remoteSizes := []int{1000, 10000}
	if quick {
		remoteSizes = []int{1000}
	}
	fmt.Printf("%-10s | %12s %8s | %12s %8s | %s\n", "facts", "per-fact", "stages", "batched", "stages", "speedup")
	for _, n := range remoteSizes {
		perFact, err := bench.RunRemoteInsertPath(n, false)
		if err != nil {
			return err
		}
		batched, err := bench.RunRemoteInsertPath(n, true)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d | %12v %8d | %12v %8d | %6.1fx\n", n,
			perFact.Duration.Round(time.Microsecond), perFact.Stages,
			batched.Duration.Round(time.Microsecond), batched.Stages,
			float64(perFact.Duration)/float64(batched.Duration))
	}
	fmt.Println("\nexpected shape: locally the batch bounds the run at one ingest fixpoint,")
	fmt.Println("winning once per-stage work is real; over TCP one frame replaces n and")
	fmt.Println("the gap is decisive.")
	return nil
}

func runP7() error {
	updates := 20
	rtts := []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond}
	if quick {
		updates = 8
		rtts = []time.Duration{0, 2 * time.Millisecond}
	}
	fmt.Println("-- stage commit latency vs destination RTT --")
	fmt.Printf("%-10s %14s %14s %14s\n", "link RTT", "stage total", "emit step", "e2e delivery")
	for _, rtt := range rtts {
		r, err := bench.RunOutboxLatency(updates, rtt)
		if err != nil {
			return err
		}
		fmt.Printf("%-10v %14v %14v %14v\n", rtt,
			r.StageAvg.Round(time.Microsecond), r.EmitAvg.Round(time.Microsecond),
			r.E2EAvg.Round(time.Microsecond))
		if rtt > 0 && r.StageAvg > rtt {
			return fmt.Errorf("p7: stage latency %v inherited the link RTT %v — a stage blocked on the network", r.StageAvg, rtt)
		}
	}

	fmt.Println("\n-- convergence under injected faults --")
	ops := 60
	if quick {
		ops = 25
	}
	schedules := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"drop 30%", transport.FaultConfig{Seed: 21, Drop: 0.3}},
		{"dup 30%", transport.FaultConfig{Seed: 22, Dup: 0.3}},
		{"reorder 30%", transport.FaultConfig{Seed: 23, Reorder: 0.3}},
		{"mixed", transport.FaultConfig{Seed: 24, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Fail: 0.1}},
	}
	fmt.Printf("%-12s %6s %10s %12s | %8s %8s %8s %8s %8s\n",
		"schedule", "ops", "converged", "time", "sent", "dropped", "dup", "reorder", "retrans")
	for _, s := range schedules {
		r, err := bench.RunFaultConvergence(ops, s.cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %6d %10v %12v | %8d %8d %8d %8d %8d\n",
			s.name, r.Ops, r.Converged, r.Duration.Round(time.Millisecond),
			r.Faults.Sent, r.Faults.Dropped, r.Faults.Duplicated, r.Faults.Reordered, r.Retransmits)
		if !r.Converged {
			return fmt.Errorf("p7: %s schedule did not converge", s.name)
		}
	}
	fmt.Println("\nexpected shape: the stage's emit step is enqueue-only, so stage latency is")
	fmt.Println("flat microseconds while end-to-end delivery tracks the link RTT; under")
	fmt.Println("drop/dup/reorder faults the acked outbox retransmits until the receiver's")
	fmt.Println("view equals the sender's contents exactly.")
	return nil
}

func runP8() error {
	ops := 200
	if quick {
		ops = 60
	}
	fmt.Println("-- receiver restart: kill and restart the volatile receiver, no further sender change --")
	fmt.Printf("%-14s %8s %10s %10s %10s %10s %10s %12s\n",
		"mode", "ops", "fixpoint", "rows after", "recovered", "requests", "repairs", "recovery")
	withR, err := bench.RunReceiverRestart(ops, true)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %8d %10d %10d %10v %10d %10d %12v\n", "resync",
		withR.Ops, withR.FixpointRows, withR.RowsAfter, withR.Recovered,
		withR.Requests, withR.Repairs, withR.RecoveryTime.Round(time.Millisecond))
	without, err := bench.RunReceiverRestart(ops, false)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %8d %10d %10d %10v %10d %10d %12s\n", "no resync",
		without.Ops, without.FixpointRows, without.RowsAfter, without.Recovered,
		without.Requests, without.Repairs, "-")
	if !withR.Recovered {
		return fmt.Errorf("p8: receiver did not recover the fixpoint via resync")
	}
	if without.Recovered {
		return fmt.Errorf("p8: receiver recovered with resync disabled — the ablation is not measuring the mechanism")
	}
	// An empty ledger is repaired by the advert alone: no bisection round,
	// and every maintained fact shipped exactly once — the served repair
	// bytes are the view's full-range repair run, no more.
	metric("restart_repair_bytes", float64(withR.RepairBytes))
	metric("restart_full_view_bytes", float64(withR.FullViewBytes))
	metric("restart_range_digest_bytes", float64(withR.RangeDigestBytes))
	if withR.RangeDigestBytes != 0 {
		return fmt.Errorf("p8: repairing an empty receiver served %dB of range digests; the advert alone should route it", withR.RangeDigestBytes)
	}
	if withR.RepairBytes != withR.FullViewBytes {
		return fmt.Errorf("p8: repairing an empty receiver served %dB of repairs; shipping each fact once is %dB",
			withR.RepairBytes, withR.FullViewBytes)
	}

	fmt.Println("\n-- steady-state anti-entropy cost per period, unchanged view --")
	fmt.Printf("%-14s %12s | %-22s %12s | %s\n", "digest advert", "bytes", "naive full re-send", "bytes", "ratio")
	fmt.Printf("%-14s %12d | %-22s %12d | %.1fx smaller\n", "",
		withR.DigestBytes, "", withR.FullViewBytes,
		float64(withR.FullViewBytes)/float64(withR.DigestBytes))
	if uint64(withR.DigestBytes) >= withR.FullViewBytes {
		return fmt.Errorf("p8: digest advert (%dB) is not smaller than a full re-send (%dB)",
			withR.DigestBytes, withR.FullViewBytes)
	}
	metric("steady_digest_bytes", float64(withR.DigestBytes))
	metric("steady_full_view_bytes", float64(withR.FullViewBytes))

	// Large-view tier: the *sender* restarts against a receiver whose huge
	// maintained ledger is intact except for a small δ. The repair must run
	// through the Merkle bisection dialogue in a small fraction of what
	// re-sending the view costs — the encoded size of its full-range repair
	// run (peer.ViewRepairBytes).
	fmt.Println("\n-- large-view repair: sender restart, δ-divergent intact receiver ledger --")
	tiers := []struct {
		size, div int
		minRatio  float64
	}{
		{100_000, 32, 20},
		{1_000_000, 32, 100},
	}
	if quick {
		tiers = tiers[:1]
	}
	fmt.Printf("%-10s %6s %10s %10s | %12s %14s | %10s\n",
		"view", "δ", "recovered", "recovery", "repair bytes", "full view", "ratio")
	for _, tier := range tiers {
		r, err := bench.RunLargeViewRepair(tier.size, tier.div)
		if err != nil {
			return err
		}
		if !r.Recovered {
			return fmt.Errorf("p8: large-view ranged repair did not recover the fixpoint at %d facts", tier.size)
		}
		if r.RangedRepairs == 0 {
			return fmt.Errorf("p8: large-view tier served no ranged repairs at %d facts", tier.size)
		}
		ratio := float64(r.FullViewBytes) / float64(r.RepairBytes)
		fmt.Printf("%-10d %6d %10v %10v | %12d %14d | %8.0fx\n",
			r.ViewSize, r.Divergence, r.Recovered, r.Recovery.Round(time.Millisecond),
			r.RepairBytes, r.FullViewBytes, ratio)
		metric(fmt.Sprintf("large_%d_repair_bytes", tier.size), float64(r.RepairBytes))
		metric(fmt.Sprintf("large_%d_full_view_bytes", tier.size), float64(r.FullViewBytes))
		metric(fmt.Sprintf("large_%d_ratio", tier.size), ratio)
		if ratio < tier.minRatio {
			return fmt.Errorf("p8: ranged repair is only %.1fx smaller than a full re-send at %d facts; want >= %.0fx",
				ratio, tier.size, tier.minRatio)
		}
	}

	fmt.Println("\nexpected shape: without resync the restarted receiver stays empty forever")
	fmt.Println("(the documented pre-resync gap); with it, the sender's periodic digest advert")
	fmt.Println("finds the empty receiver, a stream reset re-ships the view once as full-range")
	fmt.Println("repairs, and contents equal the fault-free fixpoint — while an unchanged view")
	fmt.Println("costs only a constant-size digest per period instead of a full re-send. On the")
	fmt.Println("large-view tier the same repair messages, narrowed by the Merkle bisection")
	fmt.Println("dialogue, fix a δ-key divergence in O(δ log n) bytes — two orders of magnitude")
	fmt.Println("under the O(view) re-send at the 1M tier.")
	return nil
}

func runP10() error {
	// Client-count sweep against a live wdld daemon: every client POSTs
	// batches to /apply, the hub derives a view shipped over TCP to a
	// watcher with a live subscription attached. Queues are bounded and a
	// monitor fails the run if any of them grows without bound.
	tiers := []int{50, 200, 1000, 2000}
	reqs, batch, limit := 5, 2, 64
	if quick {
		tiers = []int{50, 200}
		reqs = 3
	}
	// The ceiling is in outbox entries (coalesced stage emissions, not
	// facts): flow-controlled ingest keeps depth near the limit, while an
	// unbounded queue would track the total request count.
	ceiling := 8 * limit
	fmt.Printf("%-8s | %8s | %9s %9s %9s | %12s | %9s | %s\n",
		"clients", "updates", "p50", "p99", "max", "updates/s", "max depth", "sub drops")
	for _, clients := range tiers {
		r, err := bench.RunDaemonLoad(clients, reqs, batch, limit, ceiling)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d | %8d | %9v %9v %9v | %12.0f | %9d | %d\n",
			r.Clients, r.Updates,
			r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond), r.Max.Round(10*time.Microsecond),
			r.UpdatesPerSec, r.MaxOutboxDepth, r.SubscriptionDrops)
	}
	fmt.Println("\nexpected shape: p50 apply latency stays flat as the client count grows")
	fmt.Println("until the daemon saturates, then rises as admission control holds callers")
	fmt.Println("at the bounded queues instead of letting them pile up; the max outbox")
	fmt.Println("depth stays near the configured limit at every tier (no unbounded queue);")
	fmt.Println("the watcher's view — and the subscription consumer's replica, across any")
	fmt.Println("shed-and-resubscribe cycles its bounded channel forces — converges to")
	fmt.Println("every applied fact.")
	return nil
}

func runP11() error {
	// Swarm scale: a wepic-style follower graph of in-process peers, every
	// follow edge a push rule maintaining the author's posts into the
	// follower's feed. One interner, one mux, the wake-queue scheduler. The
	// run *fails* (not just reports) when its scale properties break:
	// super-linear memory growth across tiers, interning not paying for
	// itself against the non-interned ablation, or the scheduler examining
	// anything on a quiescent swarm.
	tiers := []int{25000, 100000}
	updRounds, updPerRound := 3, 400
	if quick {
		tiers = []int{2500, 10000}
		updRounds, updPerRound = 2, 200
	}
	base := bench.SwarmSpec{Follows: 4, Posts: 16, PostBytes: 128, Seed: 1109, Intern: true}

	fmt.Printf("%-8s | %8s | %9s | %9s | %12s | %12s | %s\n",
		"peers", "edges", "facts", "build", "updates/s", "bytes/peer", "quiescent scans")
	perPeer := make([]float64, 0, len(tiers))
	var last bench.SwarmResult
	for _, n := range tiers {
		spec := base
		spec.Peers = n
		r, err := bench.RunSwarm(spec, updRounds, updPerRound)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d | %8d | %9d | %9v | %12.0f | %12.0f | %d\n",
			r.Peers, r.Edges, r.Facts, r.BuildDuration.Round(time.Millisecond),
			r.UpdatesPerSec, r.BytesPerPeer, r.QuiescentScans)
		if r.QuiescentScans != 0 {
			return fmt.Errorf("p11: quiescent swarm of %d peers was scanned %d times; the wake-queue scheduler must cost nothing at rest", n, r.QuiescentScans)
		}
		perPeer = append(perPeer, r.BytesPerPeer)
		last = r
	}

	// Memory linearity: bytes/peer must not grow with the population.
	ratio := perPeer[len(perPeer)-1] / perPeer[0]
	if ratio > 1.5 {
		return fmt.Errorf("p11: bytes/peer grew %.2fx from %d to %d peers (super-linear memory)", ratio, tiers[0], tiers[len(tiers)-1])
	}

	// Interning ablation at the small tier: shared storage must pay.
	abl := base
	abl.Peers = tiers[0]
	abl.Intern = false
	ar, err := bench.RunSwarm(abl, updRounds, updPerRound)
	if err != nil {
		return err
	}
	internRatio := perPeer[0] / ar.BytesPerPeer
	fmt.Printf("\nablation (no interning, %d peers): %.0f bytes/peer — interned/plain ratio %.2f\n",
		abl.Peers, ar.BytesPerPeer, internRatio)
	if internRatio > 0.9 {
		return fmt.Errorf("p11: interning saves only %.0f%% (ratio %.2f, want <= 0.90)", (1-internRatio)*100, internRatio)
	}

	metric("peers", float64(last.Peers))
	metric("facts", float64(last.Facts))
	metric("updates_per_sec", last.UpdatesPerSec)
	metric("bytes_per_peer", perPeer[len(perPeer)-1])
	metric("bytes_per_peer_ablation", ar.BytesPerPeer)
	metric("mem_ratio", ratio)
	metric("intern_ratio", internRatio)
	metric("quiescent_scans", float64(last.QuiescentScans))
	metric("interned_tuples", float64(last.InternedTuples))

	fmt.Println("\nexpected shape: bytes/peer stays flat as the population grows (the")
	fmt.Println("intern table amortizes every replicated fact across its followers), the")
	fmt.Println("interned arm undercuts the ablation, and the quiescent-scan column is")
	fmt.Println("zero — the scheduler discovers work through wake hooks, so an idle")
	fmt.Println("swarm costs nothing per round regardless of its size.")
	return nil
}

func runI1() error {
	sizes := []int{1000, 10000, 100000}
	rounds := 20
	if quick {
		sizes = []int{1000, 10000}
		rounds = 5
	}
	fmt.Printf("%-10s | %12s %14s | %12s %14s | %s\n",
		"facts", "incr setup", "incr/update", "naive setup", "naive/update", "speedup")
	for _, n := range sizes {
		inc, err := bench.RunIncrementalUpdate(n, rounds, true)
		if err != nil {
			return err
		}
		naive, err := bench.RunIncrementalUpdate(n, rounds, false)
		if err != nil {
			return err
		}
		if inc.ViewRows != naive.ViewRows || inc.ViewFP != naive.ViewFP {
			return fmt.Errorf("i1: modes disagree at n=%d: incremental %d rows (fp %x), naive %d rows (fp %x)",
				n, inc.ViewRows, inc.ViewFP, naive.ViewRows, naive.ViewFP)
		}
		fmt.Printf("%-10d | %12v %14v | %12v %14v | %6.1fx\n", n,
			inc.Setup.Round(time.Microsecond), inc.PerUpdate.Round(time.Microsecond),
			naive.Setup.Round(time.Microsecond), naive.PerUpdate.Round(time.Microsecond),
			float64(naive.PerUpdate)/float64(inc.PerUpdate))
	}

	steps := 60
	if quick {
		steps = 25
	}
	checked, err := bench.RunIncrementalAgreement(steps, 20130523)
	if err != nil {
		return err
	}
	fmt.Printf("\nagreement: incremental and naive views identical after each of %d random\n", checked)
	fmt.Println("insert/delete batches over a recursive closure program.")
	fmt.Println("\nexpected shape: naive update latency grows with the database (the whole view")
	fmt.Println("is recomputed per stage); incremental latency is bounded by the delta, so the")
	fmt.Println("gap widens with n — well past 10x at the 100k tier.")
	return nil
}

func runA1() error {
	fmt.Println("-- write-ahead-log durability on the update path --")
	nf := 5000
	if quick {
		nf = 1000
	}
	noWal, err := bench.RunWALAblation(nf, "")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "wdlbench-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := bench.RunWALAblation(nf, dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %14s %14s %10s\n", "facts", "volatile", "durable", "cost")
	fmt.Printf("%-12d %14v %14v %9.1fx\n", nf,
		noWal.Duration.Round(time.Microsecond), wal.Duration.Round(time.Microsecond),
		float64(wal.Duration)/float64(noWal.Duration))
	return nil
}
