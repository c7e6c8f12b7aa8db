// Package daemon hosts WebdamLog peers as a long-lived service: many peers
// in one process, each listening on its own TCP address (the paper's
// deployment shape — laptops plus the Webdam cloud — collapsed onto one
// box when convenient), plus an HTTP admin surface for health, Prometheus
// metrics, live peer/relation inspection, and remote updates.
//
// The daemon is the library behind cmd/wdld; tests drive it in-process.
// Lifecycle: New validates the config, Start binds every listener and
// launches the peer loops, Drain stops admitting writes and waits for the
// outboxes to empty, Close tears everything down. See docs/operations.md.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/peer"
	"repro/internal/transport"
)

// ProgramDiagnostics is the structured startup error for a peer whose
// configured program fails static analysis: the daemon refuses to come up
// and reports every error-severity finding with its position, instead of
// surfacing whichever one the load path happens to hit first at runtime.
type ProgramDiagnostics struct {
	Peer  string
	File  string // the program file, or "<config>" for inline programs
	Diags []analysis.Diagnostic
}

// Error implements the error interface, one finding per line.
func (e *ProgramDiagnostics) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "daemon: peer %s: program fails static analysis (%d error(s))", e.Peer, len(e.Diags))
	for _, d := range e.Diags {
		fmt.Fprintf(&sb, "\n  %s:%s", e.File, d.String())
	}
	return sb.String()
}

// checkProgram parses and statically checks a peer's startup program.
// Warnings are tolerated; error-severity diagnostics abort startup. A
// program that does not even parse is left to the peer's own load path,
// which reports the parse error with its position.
func checkProgram(pc *PeerConfig, src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil
	}
	var errs []analysis.Diagnostic
	for _, d := range analysis.Check(prog, analysis.Options{DefaultPeer: pc.Name}) {
		if d.Severity == analysis.Error {
			errs = append(errs, d)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	file := "<config>"
	if pc.Program == "" && pc.ProgramFile != "" {
		file = pc.ProgramFile
	}
	return &ProgramDiagnostics{Peer: pc.Name, File: file, Diags: errs}
}

// PeerConfig describes one hosted peer.
type PeerConfig struct {
	// Name is the peer's WebdamLog principal (required, unique).
	Name string `json:"name"`
	// Listen is the peer's TCP address; default "127.0.0.1:0" (an
	// ephemeral port, advertised to the sibling peers automatically).
	Listen string `json:"listen,omitempty"`
	// Program is an inline WebdamLog program loaded at startup.
	Program string `json:"program,omitempty"`
	// ProgramFile is a path to a program file loaded at startup (after
	// Program, if both are set).
	ProgramFile string `json:"program_file,omitempty"`
	// WAL is a directory for durable state; empty means in-memory only.
	WAL string `json:"wal,omitempty"`
	// Trust lists peers whose delegations are auto-accepted.
	Trust []string `json:"trust,omitempty"`
}

// Config is the daemon's JSON-file configuration.
type Config struct {
	// Admin is the HTTP admin listen address; default "127.0.0.1:0".
	Admin string `json:"admin,omitempty"`
	// Peers are the hosted peers (at least one).
	Peers []PeerConfig `json:"peers"`
	// Remotes maps peer names hosted elsewhere to their dial addresses.
	Remotes map[string]string `json:"remotes,omitempty"`
	// OutboxLimit bounds each hosted peer's per-destination outbox queue;
	// 0 leaves queues unbounded (see peer.Config.OutboxLimit).
	OutboxLimit int `json:"outbox_limit,omitempty"`
	// MaxPendingOps bounds each hosted peer's staged-local-update queue.
	MaxPendingOps int `json:"max_pending_ops,omitempty"`
	// Admission is "block" (default) or "fail-fast" — what a full queue
	// does to an apply (see peer.AdmissionPolicy).
	Admission string `json:"admission,omitempty"`
	// ShedAfter arms slow-peer shedding, as a Go duration string ("30s"):
	// a destination making no ack progress for this long has its stream
	// reset and its backlog dropped, leaving repair to anti-entropy.
	ShedAfter string `json:"shed_after,omitempty"`
}

// admission parses Config.Admission.
func (c *Config) admission() (peer.AdmissionPolicy, error) {
	switch c.Admission {
	case "", "block":
		return peer.AdmitBlock, nil
	case "fail-fast":
		return peer.AdmitFailFast, nil
	}
	return 0, fmt.Errorf("daemon: admission %q (want \"block\" or \"fail-fast\")", c.Admission)
}

// shedAfter parses Config.ShedAfter.
func (c *Config) shedAfter() (time.Duration, error) {
	if c.ShedAfter == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(c.ShedAfter)
	if err != nil {
		return 0, fmt.Errorf("daemon: shed_after: %w", err)
	}
	return d, nil
}

// ParseConfig decodes and validates a JSON config.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("daemon: config: %w", err)
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("daemon: config: no peers")
	}
	seen := map[string]bool{}
	for i := range cfg.Peers {
		pc := &cfg.Peers[i]
		if pc.Name == "" {
			return nil, fmt.Errorf("daemon: config: peer %d has no name", i)
		}
		if seen[pc.Name] {
			return nil, fmt.Errorf("daemon: config: duplicate peer %q", pc.Name)
		}
		seen[pc.Name] = true
		if _, remote := cfg.Remotes[pc.Name]; remote {
			return nil, fmt.Errorf("daemon: config: peer %q is also a remote", pc.Name)
		}
	}
	if _, err := cfg.admission(); err != nil {
		return nil, err
	}
	if _, err := cfg.shedAfter(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// LoadConfig reads and parses a JSON config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(data)
}

// hostedPeer is one peer plus its transport endpoint.
type hostedPeer struct {
	p  *peer.Peer
	ep *transport.TCPEndpoint
}

// Daemon hosts the configured peers and the admin HTTP server.
type Daemon struct {
	cfg *Config
	reg *metrics.Registry

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	peers    map[string]*hostedPeer
	order    []string // config order, for stable listings
	draining bool

	admin *http.Server
	admLn net.Listener
}

// New validates cfg and prepares a daemon. Nothing is bound until Start.
func New(cfg *Config) (*Daemon, error) {
	if cfg == nil || len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("daemon: empty config")
	}
	if _, err := cfg.admission(); err != nil {
		return nil, err
	}
	if _, err := cfg.shedAfter(); err != nil {
		return nil, err
	}
	return &Daemon{cfg: cfg, reg: metrics.NewRegistry(), peers: map[string]*hostedPeer{}}, nil
}

// Metrics returns the daemon's shared registry (every hosted peer's series,
// labeled by peer name).
func (d *Daemon) Metrics() *metrics.Registry { return d.reg }

// Peer returns a hosted peer by name, or nil.
func (d *Daemon) Peer(name string) *peer.Peer {
	d.mu.Lock()
	defer d.mu.Unlock()
	if hp := d.peers[name]; hp != nil {
		return hp.p
	}
	return nil
}

// PeerAddr returns the bound TCP address of a hosted peer ("" if unknown).
func (d *Daemon) PeerAddr(name string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if hp := d.peers[name]; hp != nil {
		return hp.ep.Addr()
	}
	return ""
}

// AdminAddr returns the bound admin HTTP address ("" before Start).
func (d *Daemon) AdminAddr() string {
	if d.admLn == nil {
		return ""
	}
	return d.admLn.Addr().String()
}

// Start binds every peer listener and the admin server, then launches the
// peer loops. ctx bounds the daemon's lifetime: cancelling it is equivalent
// to Close (without the drain).
func (d *Daemon) Start(ctx context.Context) error {
	d.ctx, d.cancel = context.WithCancel(ctx)
	admit, _ := d.cfg.admission()
	shed, _ := d.cfg.shedAfter()

	// Bind every listener first (ephemeral ports resolve here), then tell
	// each endpoint about its siblings, then construct the peers — so by
	// the time any peer loop runs, every hosted destination is routable.
	eps := make([]*transport.TCPEndpoint, len(d.cfg.Peers))
	for i, pc := range d.cfg.Peers {
		listen := pc.Listen
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		ep, err := transport.ListenTCP(d.ctx, pc.Name, listen, d.cfg.Remotes)
		if err != nil {
			d.teardown()
			return err
		}
		eps[i] = ep
	}
	for i := range eps {
		for j := range eps {
			if i != j {
				eps[i].AddPeer(eps[j].Name(), eps[j].Addr())
			}
		}
	}
	for i, pc := range d.cfg.Peers {
		cfg := peer.Config{
			Name:            pc.Name,
			Metrics:         d.reg,
			OutboxLimit:     d.cfg.OutboxLimit,
			MaxPendingOps:   d.cfg.MaxPendingOps,
			Admission:       admit,
			OutboxShedAfter: shed,
			WAL:             pc.WAL,
		}
		if len(pc.Trust) > 0 {
			cfg.Policy = acl.NewTrustPolicy(pc.Trust...)
		}
		p, err := peer.New(cfg, eps[i])
		if err != nil {
			d.teardown()
			return fmt.Errorf("daemon: peer %s: %w", pc.Name, err)
		}
		src := pc.Program
		if pc.ProgramFile != "" {
			data, err := os.ReadFile(pc.ProgramFile)
			if err != nil {
				p.Close()
				d.teardown()
				return err
			}
			src += "\n" + string(data)
		}
		if strings.TrimSpace(src) != "" {
			if err := checkProgram(&pc, src); err != nil {
				p.Close()
				d.teardown()
				return err
			}
			if err := p.LoadSource(src); err != nil {
				p.Close()
				d.teardown()
				return fmt.Errorf("daemon: peer %s: %w", pc.Name, err)
			}
		}
		d.mu.Lock()
		d.peers[pc.Name] = &hostedPeer{p: p, ep: eps[i]}
		d.order = append(d.order, pc.Name)
		d.mu.Unlock()
		d.wg.Add(1)
		go func(p *peer.Peer) {
			defer d.wg.Done()
			p.Run(d.ctx)
		}(p)
	}

	adminAddr := d.cfg.Admin
	if adminAddr == "" {
		adminAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", adminAddr)
	if err != nil {
		d.teardown()
		return err
	}
	d.admLn = ln
	srv := &http.Server{Handler: d.handler()}
	d.admin = srv
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		// srv, not d.admin: teardown nils the field, possibly before
		// this goroutine is scheduled.
		srv.Serve(ln)
	}()
	return nil
}

// Drain stops admitting new writes (the admin /apply returns 503) and
// waits until every hosted peer's outbox is empty or ctx expires. It does
// not stop the peer loops — call Close after.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	hps := make([]*hostedPeer, 0, len(d.peers))
	for _, hp := range d.peers {
		hps = append(hps, hp)
	}
	d.mu.Unlock()
	for {
		pending := 0
		for _, hp := range hps {
			n, _ := hp.p.OutboxPending()
			pending += n
		}
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon: drain: %d entries still pending: %w", pending, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close stops the admin server and every hosted peer.
func (d *Daemon) Close() error {
	if d.cancel != nil {
		d.cancel()
	}
	d.teardown()
	d.wg.Wait()
	return nil
}

// teardown closes whatever Start managed to bind, in reverse order.
func (d *Daemon) teardown() {
	if d.admin != nil {
		d.admin.Close()
		d.admin = nil
	}
	d.mu.Lock()
	hps := make([]*hostedPeer, 0, len(d.peers))
	for _, hp := range d.peers {
		hps = append(hps, hp)
	}
	d.peers = map[string]*hostedPeer{}
	d.order = nil
	d.mu.Unlock()
	for _, hp := range hps {
		hp.p.Close()
	}
	if d.cancel != nil {
		d.cancel()
	}
}

// peerNames returns the hosted peer names in config order.
func (d *Daemon) peerNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.order))
	copy(out, d.order)
	sort.Strings(out)
	return out
}
