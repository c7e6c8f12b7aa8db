package wepic

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/acl"
	"repro/internal/ast"
)

// UI serves the Web interface of a Wepic peer, reproducing the panels of
// the paper's Figure 1 (pictures, attendees, attendee-pictures frame,
// transfer controls) and Figure 3 (the running program, rule customization
// and the pending-delegations queue).
type UI struct {
	app *App
	// run advances the network after a mutation (in the demo: run the
	// in-process network to quiescence).
	run func() error
	mux *http.ServeMux
}

// NewUI builds the HTTP interface for app. run is invoked after every
// mutating request to propagate changes through the network.
func NewUI(app *App, run func() error) *UI {
	u := &UI{app: app, run: run, mux: http.NewServeMux()}
	u.mux.HandleFunc("GET /{$}", u.handleHome)
	u.mux.HandleFunc("GET /rules", u.handleRules)
	u.mux.HandleFunc("POST /upload", u.handleUpload)
	u.mux.HandleFunc("POST /select", u.handleSelect)
	u.mux.HandleFunc("POST /deselect", u.handleDeselect)
	u.mux.HandleFunc("POST /selectpic", u.handleSelectPic)
	u.mux.HandleFunc("POST /protocol", u.handleProtocol)
	u.mux.HandleFunc("POST /rate", u.handleRate)
	u.mux.HandleFunc("POST /comment", u.handleComment)
	u.mux.HandleFunc("POST /tag", u.handleTag)
	u.mux.HandleFunc("POST /authorize", u.handleAuthorize)
	u.mux.HandleFunc("POST /rules/add", u.handleRuleAdd)
	u.mux.HandleFunc("POST /rules/replace", u.handleRuleReplace)
	u.mux.HandleFunc("POST /rules/remove", u.handleRuleRemove)
	u.mux.HandleFunc("POST /delegations/accept", u.handleDelegationAccept)
	u.mux.HandleFunc("POST /delegations/reject", u.handleDelegationReject)
	u.mux.HandleFunc("POST /query", u.handleQuery)
	return u
}

// Handler returns the HTTP handler for mounting.
func (u *UI) Handler() http.Handler { return u.mux }

func (u *UI) advance(w http.ResponseWriter) bool {
	if u.run == nil {
		return true
	}
	if err := u.run(); err != nil {
		http.Error(w, "network error: "+err.Error(), http.StatusInternalServerError)
		return false
	}
	return true
}

func (u *UI) redirect(w http.ResponseWriter, r *http.Request, to string) {
	if !u.advance(w) {
		return
	}
	http.Redirect(w, r, to, http.StatusSeeOther)
}

type homeData struct {
	Me               string
	Pictures         []Ranked
	AttendeePictures []Picture
	Selected         []string
	Protocol         string
	Pending          int
	QueryResult      []string
	QueryText        string
	QueryError       string
}

func (u *UI) handleHome(w http.ResponseWriter, r *http.Request) {
	d := homeData{Me: u.app.Name(), Pictures: u.app.Ranked(), AttendeePictures: u.app.AttendeePictures()}
	for _, t := range u.app.Peer().Query("selectedAttendee") {
		d.Selected = append(d.Selected, t[0].StringVal())
	}
	for _, t := range u.app.Peer().Query("communicate") {
		d.Protocol = t[0].StringVal()
	}
	d.Pending = len(u.app.PendingDelegations())
	render(w, homeTmpl, d)
}

type rulesData struct {
	Me      string
	Rules   []ast.Rule
	Deleg   map[string][]ast.Rule
	Pending []acl.PendingDelegation
	Errors  []string
}

func (u *UI) handleRules(w http.ResponseWriter, r *http.Request) {
	d := rulesData{Me: u.app.Name(), Rules: u.app.Peer().Rules(), Deleg: u.app.Peer().DelegatedRules(),
		Pending: u.app.PendingDelegations()}
	for _, err := range u.app.Peer().CompileErrors() {
		d.Errors = append(d.Errors, err.Error())
	}
	render(w, rulesTmpl, d)
}

func (u *UI) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSpace(r.FormValue("name"))
	if name == "" {
		http.Error(w, "picture name required", http.StatusBadRequest)
		return
	}
	data := []byte(r.FormValue("data"))
	if _, err := u.app.Upload(name, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleSelect(w http.ResponseWriter, r *http.Request) {
	if err := u.app.SelectAttendee(strings.TrimSpace(r.FormValue("attendee"))); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleDeselect(w http.ResponseWriter, r *http.Request) {
	if err := u.app.DeselectAttendee(strings.TrimSpace(r.FormValue("attendee"))); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleSelectPic(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad picture id", http.StatusBadRequest)
		return
	}
	if err := u.app.SelectPicture(r.FormValue("name"), id, r.FormValue("owner")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleProtocol(w http.ResponseWriter, r *http.Request) {
	if err := u.app.SetProtocol(r.FormValue("protocol")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleRate(w http.ResponseWriter, r *http.Request) {
	id, err1 := strconv.ParseInt(r.FormValue("id"), 10, 64)
	stars, err2 := strconv.ParseInt(r.FormValue("stars"), 10, 64)
	if err1 != nil || err2 != nil || stars < 1 || stars > 5 {
		http.Error(w, "bad rating", http.StatusBadRequest)
		return
	}
	owner := r.FormValue("owner")
	if owner == "" {
		owner = u.app.Name()
	}
	if err := u.app.Rate(owner, id, stars); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleComment(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad picture id", http.StatusBadRequest)
		return
	}
	owner := r.FormValue("owner")
	if owner == "" {
		owner = u.app.Name()
	}
	if err := u.app.Comment(owner, id, r.FormValue("text")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleTag(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad picture id", http.StatusBadRequest)
		return
	}
	owner := r.FormValue("owner")
	if owner == "" {
		owner = u.app.Name()
	}
	if err := u.app.Tag(owner, id, r.FormValue("person")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleAuthorize(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad picture id", http.StatusBadRequest)
		return
	}
	if err := u.app.Authorize(r.FormValue("target"), id); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/")
}

func (u *UI) handleRuleAdd(w http.ResponseWriter, r *http.Request) {
	if _, err := u.app.Peer().AddRule(r.FormValue("rule")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/rules")
}

func (u *UI) handleRuleReplace(w http.ResponseWriter, r *http.Request) {
	if err := u.app.Peer().ReplaceRule(r.FormValue("id"), r.FormValue("rule")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/rules")
}

func (u *UI) handleRuleRemove(w http.ResponseWriter, r *http.Request) {
	if err := u.app.Peer().RemoveRule(r.FormValue("id")); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/rules")
}

func (u *UI) handleDelegationAccept(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.FormValue("id"))
	if err != nil {
		http.Error(w, "bad delegation id", http.StatusBadRequest)
		return
	}
	if err := u.app.AcceptDelegation(id); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/rules")
}

func (u *UI) handleDelegationReject(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.FormValue("id"))
	if err != nil {
		http.Error(w, "bad delegation id", http.StatusBadRequest)
		return
	}
	if err := u.app.RejectDelegation(id); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.redirect(w, r, "/rules")
}

// handleQuery implements the Query tab: the posted rule's head must target
// a fresh local relation; the rule is installed, the network advanced, the
// result read out, and the rule removed again.
func (u *UI) handleQuery(w http.ResponseWriter, r *http.Request) {
	src := r.FormValue("rule")
	d := homeData{Me: u.app.Name(), QueryText: src}
	id, err := u.app.Peer().AddRule(src)
	if err != nil {
		d.QueryError = err.Error()
	} else {
		if u.run != nil {
			if err := u.run(); err != nil {
				d.QueryError = err.Error()
			}
		}
		rule, _ := parseRule(src)
		if !rule.Head.Peer.IsVar() && !rule.Head.Rel.IsVar() {
			for _, t := range u.app.Peer().Query(rule.Head.Rel.Val.StringVal()) {
				d.QueryResult = append(d.QueryResult, t.String())
			}
		}
		if err := u.app.Peer().RemoveRule(id); err != nil {
			d.QueryError = err.Error()
		}
		if u.run != nil {
			_ = u.run() // propagate the removal (withdraw delegations)
		}
	}
	d.Pictures = u.app.Ranked()
	d.AttendeePictures = u.app.AttendeePictures()
	d.Pending = len(u.app.PendingDelegations())
	render(w, homeTmpl, d)
}

func render(w http.ResponseWriter, t *template.Template, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.Execute(w, data); err != nil {
		fmt.Fprintf(w, "<pre>template error: %v</pre>", err)
	}
}

var homeTmpl = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>Wepic — {{.Me}}</title><style>
body{font-family:sans-serif;margin:2em;max-width:70em}
h1{color:#333} .frame{border:1px solid #aaa;padding:1em;margin:1em 0;border-radius:6px}
table{border-collapse:collapse} td,th{border:1px solid #ccc;padding:4px 8px}
form.inline{display:inline} nav a{margin-right:1em}
</style></head><body>
<h1>Wepic — peer <em>{{.Me}}</em></h1>
<nav><a href="/">Pictures</a> <a href="/rules">Rules &amp; delegations{{if .Pending}} ({{.Pending}} pending){{end}}</a></nav>

<div class="frame"><h2>My pictures</h2>
<table><tr><th>id</th><th>name</th><th>stars</th><th>#ratings</th><th>#comments</th><th>tags</th><th></th></tr>
{{range .Pictures}}<tr><td>{{.ID}}</td><td>{{.Name}}</td><td>{{printf "%.1f" .AvgStars}}</td><td>{{.Ratings}}</td><td>{{.Comments}}</td><td>{{range .Tags}}{{.}} {{end}}</td>
<td><form class="inline" method="post" action="/selectpic"><input type="hidden" name="id" value="{{.ID}}"><input type="hidden" name="name" value="{{.Name}}"><input type="hidden" name="owner" value="{{.Owner}}"><button>select for transfer</button></form>
<form class="inline" method="post" action="/authorize"><input type="hidden" name="id" value="{{.ID}}"><select name="target"><option>sigmod</option><option>facebook</option></select><button>authorize</button></form></td></tr>{{end}}
</table>
<form method="post" action="/upload">Upload: name <input name="name"> content <input name="data"> <button>upload</button></form>
<form method="post" action="/rate">Rate: id <input name="id" size="3"> stars <input name="stars" size="1"> owner <input name="owner" size="8" placeholder="{{.Me}}"> <button>rate</button></form>
<form method="post" action="/comment">Comment: id <input name="id" size="3"> text <input name="text"> owner <input name="owner" size="8" placeholder="{{.Me}}"> <button>comment</button></form>
<form method="post" action="/tag">Tag: id <input name="id" size="3"> person <input name="person"> owner <input name="owner" size="8" placeholder="{{.Me}}"> <button>tag</button></form>
</div>

<div class="frame"><h2>Attendees</h2>
Selected: {{range .Selected}}<form class="inline" method="post" action="/deselect"><input type="hidden" name="attendee" value="{{.}}"><button>{{.}} ✕</button></form> {{else}}<em>none</em>{{end}}
<form method="post" action="/select">Highlight attendee: <input name="attendee"> <button>select</button></form>
<form method="post" action="/protocol">My preferred transfer protocol:
<select name="protocol"><option{{if eq .Protocol "wepic"}} selected{{end}}>wepic</option><option{{if eq .Protocol "email"}} selected{{end}}>email</option><option{{if eq .Protocol "facebook"}} selected{{end}}>facebook</option></select>
<button>set</button> (currently: {{if .Protocol}}{{.Protocol}}{{else}}unset{{end}})</form>
</div>

<div class="frame"><h2>Attendee pictures</h2>
<table><tr><th>id</th><th>name</th><th>owner</th></tr>
{{range .AttendeePictures}}<tr><td>{{.ID}}</td><td>{{.Name}}</td><td>{{.Owner}}</td></tr>{{else}}<tr><td colspan="3"><em>select an attendee (and wait for their approval)</em></td></tr>{{end}}
</table></div>

<div class="frame"><h2>Query</h2>
<form method="post" action="/query"><textarea name="rule" rows="3" cols="80" placeholder="result@{{.Me}}($n) :- pictures@{{.Me}}($i,$n,$o,$d);">{{.QueryText}}</textarea><br><button>run query</button></form>
{{if .QueryError}}<p style="color:#b00">{{.QueryError}}</p>{{end}}
{{if .QueryResult}}<ul>{{range .QueryResult}}<li><code>{{.}}</code></li>{{end}}</ul>{{end}}
</div>
</body></html>`))

var rulesTmpl = template.Must(template.New("rules").Parse(`<!DOCTYPE html>
<html><head><title>Wepic rules — {{.Me}}</title><style>
body{font-family:sans-serif;margin:2em;max-width:70em}
.frame{border:1px solid #aaa;padding:1em;margin:1em 0;border-radius:6px}
pre{background:#f6f6f6;padding:.5em} nav a{margin-right:1em}
.pending{background:#fff6e0;border:1px solid #e0b050;padding:.7em;margin:.5em 0;border-radius:4px}
</style></head><body>
<h1>WebdamLog program of <em>{{.Me}}</em></h1>
<nav><a href="/">Pictures</a> <a href="/rules">Rules</a></nav>

{{if .Pending}}<div class="frame"><h2>Pending delegations</h2>
{{range .Pending}}<div class="pending"><strong>{{.Origin}}</strong> wants to install:<pre>{{.Rule}};</pre>
<form style="display:inline" method="post" action="/delegations/accept"><input type="hidden" name="id" value="{{.ID}}"><button>accept</button></form>
<form style="display:inline" method="post" action="/delegations/reject"><input type="hidden" name="id" value="{{.ID}}"><button>reject</button></form>
</div>{{end}}</div>{{end}}

<div class="frame"><h2>My rules</h2>
{{range .Rules}}<pre>[{{.ID}}] {{.}}</pre>
<form method="post" action="/rules/replace"><input type="hidden" name="id" value="{{.ID}}"><input name="rule" size="100" placeholder="replacement rule"><button>replace</button></form>
<form method="post" action="/rules/remove"><input type="hidden" name="id" value="{{.ID}}"><button>remove</button></form>
{{end}}
<form method="post" action="/rules/add"><h3>Add a rule</h3><input name="rule" size="100"> <button>add</button></form>
</div>

<div class="frame"><h2>Delegated rules (installed by other peers)</h2>
{{range $origin, $rules := .Deleg}}{{range $rules}}<pre>{{.}}; // delegated by {{$origin}}</pre>{{end}}{{else}}<em>none</em>{{end}}
</div>

{{if .Errors}}<div class="frame"><h2>Compilation problems</h2>{{range .Errors}}<pre>{{.}}</pre>{{end}}</div>{{end}}
</body></html>`))
