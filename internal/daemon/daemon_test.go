package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/peer"
)

// testConfig hosts a hub peer shipping a derived view to a watcher peer
// over real TCP — the smallest two-peer daemon.
func testConfig() *Config {
	return &Config{
		Peers: []PeerConfig{
			{
				Name: "hub",
				Program: `
					relation extensional data@hub(x);
					relation extensional mirror@watcher(x);
					mirror@watcher($x) :- data@hub($x);
				`,
			},
			{
				Name:    "watcher",
				Program: `relation extensional mirror@watcher(x);`,
			},
		},
	}
}

// startDaemon runs a daemon for the test's duration and returns it plus
// the admin base URL.
func startDaemon(t *testing.T, cfg *Config) (*Daemon, string) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, "http://" + d.AdminAddr()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func httpApply(t *testing.T, base string, req applyRequest) (int, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /apply: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

// TestDaemonApplyFlowsToRemotePeer: an update POSTed to the admin surface
// reaches the hub, derives the view, and the maintained delta crosses TCP
// to the watcher peer.
func TestDaemonApplyFlowsToRemotePeer(t *testing.T) {
	_, base := startDaemon(t, testConfig())

	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := httpApply(t, base, applyRequest{
		Peer:   "hub",
		Insert: []string{`data@hub("a")`, `data@hub("b")`},
	})
	if code != http.StatusOK {
		t.Fatalf("/apply = %d %q", code, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := httpGet(t, base+"/peers/watcher/relations/mirror")
		var got struct {
			Tuples []string `json:"tuples"`
		}
		if code == http.StatusOK && json.Unmarshal([]byte(body), &got) == nil && len(got.Tuples) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never reached the watcher: %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /peers lists both peers with their bound addresses.
	code, body = httpGet(t, base+"/peers")
	if code != http.StatusOK {
		t.Fatalf("/peers = %d", code)
	}
	var peers []peerSummary
	if err := json.Unmarshal([]byte(body), &peers); err != nil {
		t.Fatalf("/peers not JSON: %v\n%s", err, body)
	}
	if len(peers) != 2 || peers[0].Name != "hub" || peers[1].Name != "watcher" {
		t.Fatalf("/peers = %+v", peers)
	}
	for _, p := range peers {
		if p.Addr == "" {
			t.Errorf("peer %s has no bound address", p.Name)
		}
	}

	// Bad input answers 4xx, not 5xx.
	if code, _ := httpApply(t, base, applyRequest{Peer: "nobody", Insert: []string{`x@hub("a")`}}); code != http.StatusNotFound {
		t.Errorf("unknown peer = %d, want 404", code)
	}
	if code, _ := httpApply(t, base, applyRequest{Peer: "hub", Insert: []string{`not a fact`}}); code != http.StatusBadRequest {
		t.Errorf("parse error = %d, want 400", code)
	}
	if code, _ := httpGet(t, base+"/peers/hub/relations/nope"); code != http.StatusNotFound {
		t.Errorf("unknown relation = %d, want 404", code)
	}
}

// TestDaemonMetricsScrape: /metrics on a live daemon serves parseable
// Prometheus text exposition covering both hosted peers.
func TestDaemonMetricsScrape(t *testing.T) {
	_, base := startDaemon(t, testConfig())
	if code, body := httpApply(t, base, applyRequest{Peer: "hub", Insert: []string{`data@hub("a")`}}); code != http.StatusOK {
		t.Fatalf("/apply = %d %q", code, body)
	}
	// Wait for at least one hub stage so the histograms have samples.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		var code int
		code, body = httpGet(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		if strings.Contains(body, `wdl_stages_total{peer="hub",result="ran"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ran stage ever surfaced in /metrics:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkPrometheusText(t, body)
	for _, want := range []string{
		`wdl_outbox_depth{peer="hub"}`,
		`wdl_outbox_enqueued_total{peer="hub"}`,
		`wdl_updates_applied_total{peer="hub"}`,
		`wdl_stage_seconds_bucket{peer="hub",le="+Inf"}`,
		`wdl_subscriptions{peer="watcher"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
}

// checkPrometheusText validates the text exposition format line by line:
// every sample belongs to a family announced by HELP/TYPE, and every
// sample line is "name{labels} value" with a parseable float value.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			if !strings.Contains(line, "} ") {
				t.Fatalf("unterminated label set: %q", line)
			}
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && typed[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if typed[base] == "" {
			t.Fatalf("sample %q has no TYPE line", line)
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("sample %q: bad value %q", line, val)
		}
	}
	if len(typed) == 0 {
		t.Fatal("scrape contained no TYPE lines")
	}
}

// TestDaemonDrain: draining flips /healthz and /apply to 503 and returns
// once the outboxes are empty.
func TestDaemonDrain(t *testing.T) {
	d, base := startDaemon(t, testConfig())
	if code, body := httpApply(t, base, applyRequest{Peer: "hub", Insert: []string{`data@hub("a")`}}); code != http.StatusOK {
		t.Fatalf("/apply = %d %q", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", code)
	}
	if code, _ := httpApply(t, base, applyRequest{Peer: "hub", Insert: []string{`data@hub("z")`}}); code != http.StatusServiceUnavailable {
		t.Errorf("/apply while draining = %d, want 503", code)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestParseConfig covers the validation errors operators actually hit.
func TestParseConfig(t *testing.T) {
	good := `{"peers": [{"name": "a"}], "admission": "fail-fast", "shed_after": "30s", "outbox_limit": 64}`
	cfg, err := ParseConfig([]byte(good))
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if cfg.OutboxLimit != 64 {
		t.Errorf("OutboxLimit = %d", cfg.OutboxLimit)
	}
	for _, bad := range []string{
		`{}`,
		`{"peers": []}`,
		`{"peers": [{"name": ""}]}`,
		`{"peers": [{"name": "a"}, {"name": "a"}]}`,
		`{"peers": [{"name": "a"}], "remotes": {"a": "x:1"}}`,
		`{"peers": [{"name": "a"}], "admission": "maybe"}`,
		`{"peers": [{"name": "a"}], "shed_after": "soon"}`,
		`{"peers": [{"name": "a"}], "typo_field": 1}`,
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("config %s accepted, want error", bad)
		}
	}
}

// TestDaemonBackpressure503: a fail-fast daemon with a tiny outbox bound
// answers 503 once the queue to a dead remote fills.
func TestDaemonBackpressure503(t *testing.T) {
	cfg := testConfig()
	cfg.OutboxLimit = 1
	cfg.Admission = "fail-fast"
	// Point the hub's view at a remote that is configured but not running:
	// nothing ever acks, so one apply fills the queue for good.
	cfg.Peers = cfg.Peers[:1]
	cfg.Remotes = map[string]string{"watcher": "127.0.0.1:1"}
	_, base := startDaemon(t, cfg)

	if code, body := httpApply(t, base, applyRequest{Peer: "hub", Insert: []string{`data@hub("a")`}}); code != http.StatusOK {
		t.Fatalf("first apply = %d %q", code, body)
	}
	// The first apply commits locally; its stage emission fills the bounded
	// queue. Later applies that need queue space are rejected.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		code, body := httpApply(t, base, applyRequest{
			Peer:   "hub",
			Insert: []string{fmt.Sprintf(`mirror@watcher(%q)`, fmt.Sprint("x", i))},
		})
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "backpressure") {
				t.Fatalf("503 body %q does not mention backpressure", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("apply never hit backpressure: last %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonRejectsUnsafeProgram: a config whose program fails static
// analysis is refused at startup with a structured, positioned diagnostic
// instead of whichever runtime error the load path would hit first.
func TestDaemonRejectsUnsafeProgram(t *testing.T) {
	cfg := &Config{Peers: []PeerConfig{{
		Name: "hub",
		Program: `relation extensional data@hub(x);
relation intensional view@hub(x, y);
view@hub($x, $y) :- data@hub($x);
`,
	}}}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Start(context.Background())
	if err == nil {
		d.Close()
		t.Fatal("daemon started with an unsafe program")
	}
	var pd *ProgramDiagnostics
	if !errors.As(err, &pd) {
		t.Fatalf("error is %T, want *ProgramDiagnostics: %v", err, err)
	}
	if pd.Peer != "hub" || pd.File != "<config>" {
		t.Errorf("diagnostics for %s in %s, want hub in <config>", pd.Peer, pd.File)
	}
	msg := err.Error()
	for _, want := range []string{"[WDL001]", "3:14:", "head variable $y is not bound"} {
		if !strings.Contains(msg, want) {
			t.Errorf("startup error %q lacks %q", msg, want)
		}
	}
}

// TestDaemonToleratesWarnings: warning-severity findings (here an undeclared
// relation) do not block startup.
func TestDaemonToleratesWarnings(t *testing.T) {
	cfg := &Config{Peers: []PeerConfig{{
		Name:    "hub",
		Program: `view@hub($x) :- data@hub($x);` + "\n" + `relation extensional data@hub(x);`,
	}}}
	startDaemon(t, cfg)
}

// stageGate is a wrapper hook that holds a peer's stage loop until the
// channel is closed: a consumer that has stopped consuming.
type stageGate chan struct{}

func (g stageGate) BeforeStage(*peer.Peer, *engine.Batch) error    { <-g; return nil }
func (g stageGate) AfterStage(*peer.Peer, *peer.StageReport) error { return nil }

// TestDaemonLoadBoundedOutbox: 50 concurrent /apply clients push 1200 facts
// through a hub whose watcher has stalled. Blocking admission holds the
// clients at the outbox bound instead of queueing every request; once the
// watcher resumes, every request completes and both the watcher's view and a
// subscription consumer's replica of it converge to every applied fact.
func TestDaemonLoadBoundedOutbox(t *testing.T) {
	const clients, requests, limit = 50, 12, 64
	const facts = 2 * clients * requests
	cfg := testConfig()
	cfg.OutboxLimit, cfg.MaxPendingOps = limit, limit
	d, base := startDaemon(t, cfg)
	hub, watcher := d.Peer("hub"), d.Peer("watcher")
	gate := make(stageGate)
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	watcher.SetHooks(gate)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// A subscriber keeping its own replica of the view. Its channel is
	// bounded: a burst it cannot absorb sheds the stream, and it resubscribes
	// and re-baselines from a Query (inserts only, so replays are harmless).
	var replica sync.Map
	go func() {
		for ctx.Err() == nil {
			deltas, err := watcher.Subscribe(ctx, "mirror")
			if err != nil {
				return
			}
			for _, tup := range watcher.Query("mirror") {
				replica.Store(tup.Key(), true)
			}
			for dl := range deltas {
				replica.Store(dl.Tuple.Key(), true)
			}
		}
	}()
	var sampled atomic.Int64 // deepest hub outbox the sampler saw
	go func() {
		for ctx.Err() == nil {
			depth, _ := hub.OutboxPending()
			sampled.Store(max(sampled.Load(), int64(depth)))
			time.Sleep(time.Millisecond)
		}
	}()

	// Each request carries one fact the hub's rule derives the view from (a
	// stage emission) and one addressed to the watcher outright (API intake,
	// the kind OutboxLimit bounds).
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				body, _ := json.Marshal(applyRequest{Peer: "hub", Insert: []string{
					fmt.Sprintf(`data@hub("derived-%d-%d")`, c, r),
					fmt.Sprintf(`mirror@watcher("direct-%d-%d")`, c, r),
				}})
				resp, err := client.Post(base+"/apply", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, r, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Hold the watcher until admission control has pushed back (or, with
	// nothing pushing back, until every request was taken).
	for held := false; !held; {
		select {
		case <-done:
			held = true
		case <-time.After(time.Millisecond):
			held = hub.Stats().BackpressureWaits > 0
		}
	}
	held, _ := hub.OutboxPending() // the held queue, whatever the sampler's timing
	release()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("clients still blocked a minute after the watcher resumed")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	count := func(m *sync.Map) (n int) {
		m.Range(func(any, any) bool { n++; return true })
		return n
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(watcher.Query("mirror")) != facts || count(&replica) != facts {
		if time.Now().After(deadline) {
			t.Fatalf("watcher's view holds %d of %d facts, the subscriber's replica %d",
				len(watcher.Query("mirror")), facts, count(&replica))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := hub.Stats().BackpressureWaits; got == 0 {
		t.Errorf("no client ever waited for queue space: admission control never engaged")
	}
	depth := max(sampled.Load(), int64(held))
	if depth > 8*limit {
		t.Errorf("hub outbox reached %d entries, over 8x its limit of %d: the queue tracks the request count", depth, limit)
	}
	t.Logf("max outbox depth %d, %d backpressure waits, %d subscription drops",
		depth, hub.Stats().BackpressureWaits, watcher.Stats().SubscriptionDrops)
}
