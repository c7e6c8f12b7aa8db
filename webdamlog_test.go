package webdamlog_test

import (
	"context"
	"os"
	"testing"

	webdamlog "repro"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := webdamlog.NewSystem()
	err := sys.LoadSource(`
		peer emilien;
		relation extensional pictures@emilien(id, name, owner, data);
		pictures@emilien(1, "sea.jpg", "emilien", 0xCAFE);

		peer jules;
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name, owner, data);
		selectedAttendee@jules("emilien");
		attendeePictures@jules($id,$name,$owner,$data) :-
			selectedAttendee@jules($attendee),
			pictures@$attendee($id,$name,$owner,$data);
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	got := sys.Peer("jules").Query("attendeePictures")
	if len(got) != 1 || got[0][1].StringVal() != "sea.jpg" {
		t.Fatalf("attendeePictures = %v", got)
	}
}

func TestFacadeParsers(t *testing.T) {
	r, err := webdamlog.ParseRule(`a@p($x) :- b@p($x);`)
	if err != nil || len(r.Body) != 1 {
		t.Fatalf("ParseRule: %v %v", r, err)
	}
	f, err := webdamlog.ParseFact(`a@p("v", 1);`)
	if err != nil || f.Rel != "a" {
		t.Fatalf("ParseFact: %v %v", f, err)
	}
	prog, err := webdamlog.Parse(`peer p; a@p(1);`)
	if err != nil || len(prog.Facts) != 1 {
		t.Fatalf("Parse: %v %v", prog, err)
	}
	if !webdamlog.DefaultEngineOptions().Incremental {
		t.Error("default engine options must maintain views incrementally")
	}
}

func TestFacadeValuesAndFacts(t *testing.T) {
	f := webdamlog.NewFact("r", "p", webdamlog.Str("s"), webdamlog.Int(1),
		webdamlog.Float(1.5), webdamlog.Bool(true), webdamlog.Blob([]byte{1}))
	if len(f.Args) != 5 {
		t.Fatalf("fact = %v", f)
	}
	pol := webdamlog.NewTrustPolicy("hub")
	if !pol.Trusted("hub") || pol.Trusted("x") {
		t.Error("trust policy broken")
	}
}

// TestSamplePrograms runs every .wdl file under examples/programs to
// quiescence and checks the documented outcome.
func TestSamplePrograms(t *testing.T) {
	cases := []struct {
		file    string
		peer    string
		rel     string
		wantLen int
	}{
		{"examples/programs/album.wdl", "jules", "attendeePictures", 3},
		{"examples/programs/album.wdl", "jules", "fiveStar", 2},
		{"examples/programs/reachability.wdl", "q", "reach", 5},
	}
	for _, c := range cases {
		t.Run(c.file+"/"+c.rel, func(t *testing.T) {
			src, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			sys := webdamlog.NewSystem()
			if err := sys.LoadSource(string(src)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sys.Run(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			got := sys.Peer(c.peer).Query(c.rel)
			if len(got) != c.wantLen {
				t.Errorf("%s@%s = %v, want %d tuples", c.rel, c.peer, got, c.wantLen)
			}
		})
	}
}
