// Command wdl runs WebdamLog programs.
//
// Two modes:
//
//	wdl run [-rounds N] [-dump rel@peer,...] [-explain] file.wdl
//	    Load a multi-peer program file into an in-process system, run all
//	    peers to quiescence and print the resulting relations. -explain
//	    additionally prints, per peer, the join plan the engine chose for
//	    each rule (atom order, live cardinalities, selectivity estimates).
//
//	wdl serve -name jules -listen :7001 [-peer emilien=host:7000]...
//	          [-program file.wdl] [-trust sigmod,...] [-wal dir]
//	    Run a single peer over TCP (the distributed deployment of the
//	    paper: laptops plus the Webdam cloud), with an interactive REPL on
//	    stdin: insert/delete facts, add rules, inspect relations, and
//	    accept or reject pending delegations.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/peer"
	"repro/internal/store"
	"repro/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "wdl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  wdl run [-rounds N] [-dump rel@peer,...] [-explain] file.wdl
  wdl check [-json] [-strict] file.wdl...
  wdl serve -name NAME -listen ADDR [-peer NAME=ADDR]... [-program FILE] [-trust NAMES] [-wal DIR]`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	rounds := fs.Int("rounds", 1000, "maximum scheduler rounds before giving up")
	dump := fs.String("dump", "", "comma-separated rel@peer list to print (default: everything)")
	explain := fs.Bool("explain", false, "print each peer's join plans (evaluation order, cardinalities, selectivity estimates)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: expected exactly one program file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	sys := core.NewSystem()
	if err := sys.LoadSource(string(src)); err != nil {
		if line, col, ok := parser.Position(err); ok {
			return fmt.Errorf("%s:%d:%d: %s", fs.Arg(0), line, col, parseMsg(err))
		}
		return err
	}
	// ^C cancels the run mid-way instead of killing the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, stages, err := sys.Run(ctx, *rounds)
	if err != nil {
		return err
	}
	fmt.Printf("quiesced after %d rounds, %d stages\n", r, stages)

	want := map[string]bool{}
	if *dump != "" {
		for _, id := range strings.Split(*dump, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, p := range sys.Peers() {
		for _, rel := range p.Store().RelationsOf(p.Name()) {
			id := rel.ID()
			if len(want) > 0 && !want[id] {
				continue
			}
			if rel.Len() == 0 && len(want) == 0 {
				continue
			}
			fmt.Printf("\n%s (%s, %d tuples):\n", id, rel.Kind(), rel.Len())
			for _, t := range rel.Tuples() {
				fmt.Printf("  %s\n", t)
			}
		}
	}
	if *explain {
		// Explained after the run, so the estimates reflect the live
		// cardinalities the planner actually sees at stage time.
		for _, p := range sys.Peers() {
			fmt.Printf("\n-- join plans at %s --\n%s", p.Name(), p.Explain())
		}
	}
	return nil
}

type peerList map[string]string

func (p peerList) String() string {
	var parts []string
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p peerList) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("expected NAME=ADDR, got %q", v)
	}
	p[name] = addr
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	name := fs.String("name", "", "peer name (required)")
	listen := fs.String("listen", ":7070", "TCP listen address")
	program := fs.String("program", "", "WebdamLog program file to load at startup")
	trust := fs.String("trust", "", "comma-separated peers whose delegations are auto-accepted")
	walDir := fs.String("wal", "", "directory for durable state (write-ahead log + snapshots)")
	peers := peerList{}
	fs.Var(peers, "peer", "remote peer address as NAME=ADDR (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("serve: -name is required")
	}
	// ^C (or SIGTERM) cancels ctx: the REPL unblocks and returns, every
	// active watch subscription is torn down with it, and the peer shuts
	// down cleanly — even while a watch stream is mid-delivery.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ep, err := transport.ListenTCP(ctx, *name, *listen, peers)
	if err != nil {
		return err
	}
	cfg := peer.Config{Name: *name}
	if *trust != "" {
		cfg.Policy = acl.NewTrustPolicy(strings.Split(*trust, ",")...)
	}
	if *walDir != "" {
		w, err := store.OpenWAL(*walDir)
		if err != nil {
			return err
		}
		cfg.WAL = w
	}
	p, err := peer.New(cfg, ep)
	if err != nil {
		return err
	}
	if *program != "" {
		src, err := os.ReadFile(*program)
		if err != nil {
			return err
		}
		if err := p.LoadSource(string(src)); err != nil {
			return err
		}
	}
	fmt.Printf("peer %s listening on %s\n", *name, ep.Addr())

	go func() {
		if err := p.Run(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "peer loop:", err)
		}
	}()
	repl(ctx, p, os.Stdin, os.Stdout)
	stop()
	return p.Close()
}

// repl is the interactive console of a served peer. It returns when the
// input reaches EOF, on "quit", or when ctx is cancelled (^C) — including
// while blocked waiting for input with watch subscriptions streaming.
func repl(ctx context.Context, p *peer.Peer, in io.Reader, out io.Writer) {
	fmt.Fprintln(out, `commands: +FACT | -FACT | rule RULE | drop ID | dump [REL] | watch REL | unwatch REL | rules | pending | accept N | reject N | stats | quit`)
	watches := map[string]context.CancelFunc{}
	defer func() {
		for _, cancel := range watches {
			cancel()
		}
	}()
	// The scanner blocks in Read with no way to interrupt it, so it feeds
	// a channel and the loop selects against ctx: cancellation unblocks
	// the REPL immediately, leaving the reader goroutine to die with the
	// process (stdin) or at the next line (a test's pipe).
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
	}()
	for {
		fmt.Fprint(out, "wdl> ")
		var raw string
		select {
		case <-ctx.Done():
			fmt.Fprintln(out)
			return
		case l, ok := <-lines:
			if !ok {
				return
			}
			raw = l
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		var err error
		switch {
		case line == "quit" || line == "exit":
			return
		case strings.HasPrefix(line, "+"):
			err = p.InsertString(strings.TrimPrefix(line, "+"))
		case strings.HasPrefix(line, "-"):
			err = p.DeleteString(strings.TrimPrefix(line, "-"))
		case strings.HasPrefix(line, "rule "):
			var id string
			id, err = p.AddRule(strings.TrimPrefix(line, "rule "))
			if err == nil {
				fmt.Fprintln(out, "added rule", id)
			}
		case strings.HasPrefix(line, "drop "):
			err = p.RemoveRule(strings.TrimSpace(strings.TrimPrefix(line, "drop ")))
		case line == "rules":
			fmt.Fprint(out, p.ProgramText())
		case line == "dump":
			for _, rel := range p.Store().RelationsOf(p.Name()) {
				fmt.Fprintf(out, "%s (%s, %d tuples)\n", rel.ID(), rel.Kind(), rel.Len())
				for _, t := range rel.Tuples() {
					fmt.Fprintf(out, "  %s\n", t)
				}
			}
		case strings.HasPrefix(line, "dump "):
			relName := strings.TrimSpace(strings.TrimPrefix(line, "dump "))
			for _, t := range p.Query(relName) {
				fmt.Fprintf(out, "  %s\n", t)
			}
		case strings.HasPrefix(line, "watch "):
			relName := strings.TrimSpace(strings.TrimPrefix(line, "watch "))
			if _, dup := watches[relName]; dup {
				fmt.Fprintln(out, "already watching", relName)
				break
			}
			wctx, cancel := context.WithCancel(ctx)
			var deltas <-chan peer.Delta
			deltas, err = p.Subscribe(wctx, relName)
			if err != nil {
				cancel()
				break
			}
			watches[relName] = cancel
			go func(rel string, ch <-chan peer.Delta) {
				for d := range ch {
					fmt.Fprintf(out, "\n[%s] %s\nwdl> ", rel, d)
				}
			}(relName, deltas)
		case strings.HasPrefix(line, "unwatch "):
			relName := strings.TrimSpace(strings.TrimPrefix(line, "unwatch "))
			if cancel, ok := watches[relName]; ok {
				cancel()
				delete(watches, relName)
			} else {
				fmt.Fprintln(out, "not watching", relName)
			}
		case line == "pending":
			for _, pd := range p.Controller().Pending() {
				fmt.Fprintln(out, pd.String())
			}
		case strings.HasPrefix(line, "accept "):
			var id int
			id, err = strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "accept ")))
			if err == nil {
				err = p.Controller().Accept(id)
			}
		case strings.HasPrefix(line, "reject "):
			var id int
			id, err = strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "reject ")))
			if err == nil {
				err = p.Controller().Reject(id)
			}
		case line == "stats":
			s := p.Stats()
			fmt.Fprintf(out, "stages=%d skipped=%d derived=%d facts_in=%d facts_out=%d delegations_in=%d delegations_out=%d withdrawals=%d resync_requested=%d resync_ranged_repairs=%d\n",
				s.Stages, s.StagesSkipped, s.Derived, s.FactsIn, s.FactsOut, s.DelegationsIn, s.DelegationsOut, s.Withdrawals,
				s.ResyncRequested, s.ResyncRangedRepairs)
		default:
			fmt.Fprintln(out, "unknown command; try: +FACT -FACT rule drop dump rules pending accept reject stats quit")
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}
