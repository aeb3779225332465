package serve

// The dataset-lifecycle admin endpoints. All three require the configured
// Bearer token and a configured store; without either they answer a typed
// 403 so probing an unconfigured server reveals nothing it can do.
//
// An import is parse → persist → re-open → swap: the body is parsed and
// validated exactly like a startup file and written to the store as the
// next immutable generation (store.ImportCSV, which streams an independent
// CSV straight into the segment), then *re-opened from disk* before the
// in-memory swap — the served view is provably the stored bytes, not the
// parsed intermediate. The swap itself is one map-entry replacement under the
// server lock: queries that already resolved the old *dataset finish on the
// old view and old caches; queries that resolve after see only the new
// ones. Nothing is ever mutated in place, so there is no torn state for a
// concurrent reader to observe.

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/store"
)

// authAdmin gates the lifecycle endpoints. The token comparison is
// constant-time; a missing token configuration is a 403 (the feature is
// off), a bad credential a 401.
func (s *Server) authAdmin(w http.ResponseWriter, r *http.Request) bool {
	if s.opts.AdminToken == "" || s.opts.Store == nil {
		writeError(w, http.StatusForbidden, "admin_disabled",
			"serve: dataset administration is disabled (server started without -store and -admin-token)")
		return false
	}
	auth := r.Header.Get("Authorization")
	const scheme = "Bearer "
	if len(auth) < len(scheme) || auth[:len(scheme)] != scheme ||
		subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(s.opts.AdminToken)) != 1 {
		writeError(w, http.StatusUnauthorized, "unauthorized",
			"serve: admin endpoints need Authorization: Bearer <admin token>")
		return false
	}
	return true
}

// handleDatasetImport is POST /datasets/{name}?kind=K: body is a raw
// dataset file (CSV for ind/xrel, JSON for tree/chain). On success the
// response carries the store metadata of the new generation, already
// installed and serving.
func (s *Server) handleDatasetImport(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	name := r.PathValue("name")
	if err := store.CheckName(name); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("serve: import needs ?kind= (one of %v)", store.Kinds))
		return
	}
	maxBody := s.opts.MaxAdminBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxAdminBody
	}
	info, err := s.opts.Store.ImportCSV(name, kind, http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var bad *store.InputError
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("serve: dataset body exceeds %d bytes", tooLarge.Limit))
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, "store_error", err.Error())
		}
		return
	}
	if err := s.InstallFromStore(name); err != nil {
		// Persisted but not serveable — should be impossible (import
		// validated the bytes); report it and leave the old view serving.
		s.RecordLoadError(name, err)
		writeError(w, http.StatusInternalServerError, "store_error", err.Error())
		return
	}
	writeJSON(w, info)
}

// handleDatasetDelete is DELETE /datasets/{name}: the dataset disappears
// from the store and the serving set; in-flight queries on the old view
// still finish.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	name := r.PathValue("name")
	s.mu.Lock()
	_, inMem := s.datasets[name]
	delete(s.datasets, name)
	delete(s.loadErrors, name)
	s.mu.Unlock()
	err := s.opts.Store.Delete(name)
	switch {
	case err == nil:
	case errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrBadName):
		if !inMem {
			writeError(w, http.StatusNotFound, "unknown_dataset",
				fmt.Sprintf("serve: unknown dataset %q (GET /datasets lists the loaded ones)", name))
			return
		}
	default:
		writeError(w, http.StatusInternalServerError, "store_error", err.Error())
		return
	}
	writeJSON(w, map[string]string{"deleted": name})
}

// handleDatasetInfo is GET /datasets/{name}/info: the serving-side view
// (model, tuples, kind, generation, cache state) of one dataset.
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	name := r.PathValue("name")
	s.mu.RLock()
	d, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_dataset",
			fmt.Sprintf("serve: unknown dataset %q (GET /datasets lists the loaded ones)", name))
		return
	}
	writeJSON(w, d.info())
}
