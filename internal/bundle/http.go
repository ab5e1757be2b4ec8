package bundle

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/runtimeobs"
	"repro/internal/slo"
	"repro/internal/watchdog"
	"repro/internal/webui"
)

// WriteCombinedProm writes a daemon's whole /metrics.prom scrape: the
// live plane (with per-tenant admission series when serving), SLO
// burn rates, watchdog, and Go runtime expositions concatenated into
// one. The four writers declare disjoint metric families
// (loopsched_slo_*, loopsched_watchdog_* and loopsched_runtime_*
// beside the plane's own), so each family keeps one # HELP/# TYPE.
func WriteCombinedProm(w io.Writer, plane *livemetrics.Plane, sloEng *slo.Engine, wd *watchdog.Watchdog, sampler *runtimeobs.Sampler) error {
	if err := livemetrics.WriteProm(w, plane.Snapshot()); err != nil {
		return err
	}
	if err := slo.WriteProm(w, sloEng.Report()); err != nil {
		return err
	}
	if err := watchdog.WriteProm(w, wd.Status()); err != nil {
		return err
	}
	return runtimeobs.WriteProm(w, sampler.Snapshot())
}

// ServeList writes the store's retained bundles as JSON, newest
// first (the daemon's /bundles endpoint, mounted by internal/daemon).
func ServeList(w http.ResponseWriter, s *Store) {
	entries := s.List()
	if entries == nil {
		entries = []Entry{}
	}
	webui.JSON(w, entries)
}

// ServeBundle streams one bundle tar by ?id= (the daemon's /bundle
// endpoint), so `curl -O` or `loopdoctor bundle <url>` moves the whole
// evidence set in one request.
func ServeBundle(w http.ResponseWriter, r *http.Request, s *Store) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing ?id=<bundle id> (see /bundles)", http.StatusBadRequest)
		return
	}
	path, ok := s.Path(id)
	if !ok {
		http.Error(w, "unknown bundle id (evicted or never captured; see /bundles)", http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "bundle unreadable", http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".tar"))
	http.ServeContent(w, r, id+".tar", s.entryTime(id), f)
}

// entryTime resolves a bundle's capture time for HTTP caching
// headers; zero time (unknown id) disables them, which is harmless.
func (s *Store) entryTime(id string) (t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.ID == id {
			return e.CapturedAt
		}
	}
	return
}
