// Package webui holds the shared HTML scaffolding for the repo's
// introspection servers (perflab serve, loopserved): one stylesheet,
// one page skeleton, and one JSON-poll auto-refresh helper, so the
// dashboards stay visually and behaviourally consistent without
// duplicating markup.
package webui

import (
	"html/template"
	"io"
)

// CSS is the shared dashboard stylesheet.
const CSS = `
body { font-family: sans-serif; margin: 2em; max-width: 1100px; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
.trend { margin: 1em 0; }
.regression { color: #c00; font-weight: bold; }
.muted { color: #555; }
`

// PollJS defines pollLoop(url, everyMS, apply): fetch url as JSON,
// hand the parsed value to apply, swallow transient fetch errors (the
// server may be restarting) and re-arm. Pages add their own apply
// function in Page.Script and start the loop themselves.
const PollJS = `
async function pollLoop(url, everyMS, apply) {
  try {
    const r = await fetch(url);
    apply(await r.json());
  } catch (e) { /* server restarting; keep polling */ }
  setTimeout(() => pollLoop(url, everyMS, apply), everyMS);
}
`

// Page is one dashboard page: pre-rendered body markup plus the page's
// own script, wrapped by Render in the shared skeleton.
type Page struct {
	Title  string
	Body   template.HTML
	Script template.JS
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title>
<style>{{.CSS}}</style></head>
<body>
{{.Body}}
<script>
{{.PollJS}}
{{.Script}}
</script>
</body></html>
`))

// Render writes the complete page: shared CSS and poll helper plus the
// page's body and script.
func Render(w io.Writer, p Page) error {
	return pageTmpl.Execute(w, struct {
		Page
		CSS    template.CSS
		PollJS template.JS
	}{p, CSS, PollJS})
}
