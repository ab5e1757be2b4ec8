package slo

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"repro/internal/webui"
)

var sloBody = template.Must(template.New("slo").Parse(`
<h1>SLOs — {{.Label}}</h1>
<p class="muted">Multi-window burn rates over the live plane. An
objective breaches only when every window is burning. JSON:
<a href="?format=json">?format=json</a>.</p>
<p id="slo-status" class="muted">waiting for first evaluation…</p>
<table>
<thead><tr><th>objective</th><th>metric</th><th>threshold</th>
<th>value</th><th>window</th><th>samples</th><th>bad</th>
<th>burn</th><th>max</th><th>state</th></tr></thead>
<tbody id="slo-rows"></tbody>
</table>
`))

const sloScript = template.JS(`
function cell(v) {
  const td = document.createElement('td');
  td.textContent = v;
  return td;
}
function render(rep) {
  document.getElementById('slo-status').textContent =
    rep.ticks + ' evaluations — ' +
    (rep.breaching ? 'BREACHING' : 'all objectives healthy');
  const tb = document.getElementById('slo-rows');
  tb.innerHTML = '';
  for (const o of (rep.objectives || [])) {
    let first = true;
    for (const w of (o.window_status || [])) {
      const tr = document.createElement('tr');
      if (o.breaching) tr.className = 'regression';
      tr.appendChild(cell(first ? o.name : ''));
      tr.appendChild(cell(first ? o.metric : ''));
      tr.appendChild(cell(first ? o.threshold.toPrecision(3) : ''));
      tr.appendChild(cell(first ? (o.observed ? o.value.toPrecision(3) : '—') : ''));
      tr.appendChild(cell(w.duration_seconds + 's'));
      tr.appendChild(cell(w.samples));
      tr.appendChild(cell((100 * w.bad_fraction).toFixed(1) + '%'));
      tr.appendChild(cell(w.burn_rate.toFixed(2)));
      tr.appendChild(cell(w.max_burn));
      tr.appendChild(cell(w.burning ? 'burning' : 'ok'));
      tb.appendChild(tr);
      first = false;
    }
  }
}
pollLoop(window.location.pathname + '?format=json', 1000, render);
`)

// Handler serves an engine's live report: HTML by default (shared
// webui scaffold, auto-refreshing), the Report as JSON with
// ?format=json. Mountable at any path.
func Handler(e *Engine, label string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "json":
			webui.JSON(w, e.Report())
		case "", "html":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			var b strings.Builder
			sloBody.Execute(&b, struct{ Label string }{label})
			webui.Render(w, webui.Page{
				Title:  "SLOs — " + label,
				Body:   template.HTML(b.String()),
				Script: sloScript,
			})
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (html|json)", format), http.StatusBadRequest)
		}
	})
}
