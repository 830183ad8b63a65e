package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"c2knn/internal/server/middleware"
)

// Limits of the shared front that no deployment tunes.
const (
	// maxResults bounds k/n in a request.
	maxResults = 1000
	// shedRetryAfter is the Retry-After hint on shed responses.
	shedRetryAfter = time.Second
)

// Front is the HTTP front both serving roles share — the shard daemon
// (Server) and the scatter-gather router (internal/router): the request
// limits and logging hooks, and through its methods the hardening chain
// and the parsing and validation every query endpoint runs. Zero limits
// get defaults from SetDefaults.
type Front struct {
	// MaxBatch bounds the user count of one batched request
	// (default 1024).
	MaxBatch int
	// MaxBodyBytes bounds a request body (default 1 MiB); over-cap
	// requests are refused with 413.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline on query endpoints:
	// a request that cannot be answered within it gets 503
	// (default 10s; negative disables).
	RequestTimeout time.Duration
	// MaxInFlight is the admission-control bound: at most this many
	// requests may be past the shed stage at once — the excess is
	// refused with 429 + Retry-After instead of queueing unboundedly
	// (default 64× the pool size SetDefaults is given; negative
	// disables shedding).
	MaxInFlight int
	// Logf receives panic reports (with stacks and request IDs); nil
	// discards them. cmd/c2serve passes log.Printf.
	Logf func(format string, args ...any)
	// AccessLogf, when non-nil, enables the access-log stage: one line
	// per completed request.
	AccessLogf func(format string, args ...any)
}

// SetDefaults fills f's zero limits. pool is how many requests the
// role works on at once; MaxInFlight defaults to 64× it.
func (f *Front) SetDefaults(pool int) {
	if f.MaxBatch <= 0 {
		f.MaxBatch = 1024
	}
	if f.MaxBodyBytes <= 0 {
		f.MaxBodyBytes = 1 << 20
	}
	if f.RequestTimeout == 0 {
		f.RequestTimeout = 10 * time.Second
	}
	if f.MaxInFlight == 0 {
		// Far above the pool so only stampedes shed: waiters up to the
		// limit queue briefly at the pool, which the request deadline
		// bounds.
		f.MaxInFlight = 64 * pool
	}
}

// Harden builds the hardening chain from f's limits, accounted on st.
// query wraps one query-surface handler in, innermost last: status
// accounting (reconcilable with a load generator), admission control,
// the body cap and the request deadline. wrap puts the whole route mux
// behind the global stack, outermost first: request IDs tag
// everything; optional access logging sees final statuses; recovery
// sits inside the loggers so a panic-turned-500 is logged like any
// response. Routes mounted without query (/healthz, /statsz, /metrics)
// bypass the query stages — an overloaded daemon must still answer its
// operators.
func (f *Front) Harden(st *Stats) (query func(http.HandlerFunc) http.Handler, wrap func(http.Handler) http.Handler) {
	stages := []middleware.Middleware{middleware.CountStatus(st.RecordStatus)}
	if f.MaxInFlight > 0 {
		stages = append(stages, middleware.Shed(f.MaxInFlight, shedRetryAfter, &st.inFlight, st.RecordShed))
	}
	stages = append(stages, middleware.BodyLimit(f.MaxBodyBytes, st.RecordTooLarge))
	if f.RequestTimeout > 0 {
		stages = append(stages, middleware.Deadline(f.RequestTimeout))
	}
	global := []middleware.Middleware{middleware.RequestID()}
	if f.AccessLogf != nil {
		global = append(global, middleware.AccessLog(f.AccessLogf))
	}
	global = append(global, middleware.Recover(f.Logf, func() {
		st.RecordPanic()
		st.RecordStatus(http.StatusInternalServerError)
	}))
	query = func(h http.HandlerFunc) http.Handler { return middleware.Chain(h, stages...) }
	wrap = func(h http.Handler) http.Handler { return middleware.Chain(h, global...) }
	return query, wrap
}

// MountQueries mounts /v1/neighbors, /v1/topk and /v1/recommend on mux
// behind query. GET answers one user through single, POST a batch
// through batch; any other method is 405.
func MountQueries(mux *http.ServeMux, query func(http.HandlerFunc) http.Handler, single, batch func(http.ResponseWriter, *http.Request, Endpoint)) {
	for ep := Endpoint(0); ep < numEndpoints; ep++ {
		mux.Handle("/v1/"+ep.String(), query(func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				single(w, r, ep)
			case http.MethodPost:
				batch(w, r, ep)
			default:
				w.Header().Set("Allow", "GET, POST")
				http.Error(w, "use GET for single queries, POST for batches", http.StatusMethodNotAllowed)
			}
		}))
	}
}

func countParam(ep Endpoint) string {
	if ep == EpRecommend {
		return "n"
	}
	return "k"
}

// ParseUser reads the user id of a single query; a caller answers its
// error with BadRequest.
func ParseUser(q url.Values) (int32, error) {
	u, err := strconv.ParseInt(q.Get("user"), 10, 32)
	if err != nil {
		return 0, errors.New("user must be a 32-bit integer")
	}
	return int32(u), nil
}

// ParseCount reads the k (n for recommend) of a single query: def when
// absent, otherwise a positive integer up to maxResults. A caller
// answers its error with BadRequest. The router passes def 0, leaving
// the default to the shard.
func (f *Front) ParseCount(q url.Values, ep Endpoint, def int) (int, error) {
	raw := q.Get(countParam(ep))
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%s must be a positive integer, got %q", countParam(ep), raw)
	}
	if v > maxResults {
		return 0, fmt.Errorf("%s exceeds the maximum of %d", countParam(ep), maxResults)
	}
	return v, nil
}

// DecodeBatch reads and validates a batched query's body: an over-cap
// body is 413; malformed JSON, an empty or over-MaxBatch user list, and
// a count outside [1, maxResults] are 400. A missing count becomes def
// before the range check. On a refusal DecodeBatch has answered w and
// returns ok false.
func (f *Front) DecodeBatch(w http.ResponseWriter, r *http.Request, st *Stats, ep Endpoint, def int) (users []int32, count int, ok bool) {
	var req BatchRequest
	if !f.decodeJSON(w, r, st, &req) {
		return nil, 0, false
	}
	if len(req.Users) == 0 {
		BadRequest(w, st, `"users" must be a non-empty array`)
		return nil, 0, false
	}
	if len(req.Users) > f.MaxBatch {
		BadRequest(w, st, fmt.Sprintf("batch of %d users exceeds the maximum of %d", len(req.Users), f.MaxBatch))
		return nil, 0, false
	}
	count = req.K
	if ep == EpRecommend {
		count = req.N
	}
	if count == 0 {
		count = def
	}
	if count < 0 || count > maxResults {
		BadRequest(w, st, fmt.Sprintf("%s must be in [1, %d]", countParam(ep), maxResults))
		return nil, 0, false
	}
	return req.Users, count, true
}

// decodeJSON decodes r's body into v, answering w on failure. The body
// arrives through the BodyLimit stage's MaxBytesReader, so an over-cap
// body surfaces as *http.MaxBytesError — a 413, distinct from malformed
// JSON's 400. (Direct callers without the middleware stack are
// unlimited; Handler() is the hardened path.)
func (f *Front) decodeJSON(w http.ResponseWriter, r *http.Request, st *Stats, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		BadRequest(w, st, "invalid JSON body: "+err.Error())
		return false
	}
	st.RecordTooLarge()
	w.Header().Set("Connection", "close")
	WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
		Error: fmt.Sprintf("request body exceeds the %d-byte limit", f.MaxBodyBytes),
	})
	return false
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// BadRequest counts and answers a request rejected before any query
// ran (400).
func BadRequest(w http.ResponseWriter, st *Stats, msg string) {
	st.RecordBadRequest()
	WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg})
}

// DeadlineExpired counts and answers a request whose per-request
// deadline expired (503): the hardening contract is that an overloaded
// or stalled tier refuses rather than hangs.
func DeadlineExpired(w http.ResponseWriter, st *Stats) {
	st.RecordTimeout()
	WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "request deadline expired"})
}

// Refuse answers the write surface's typed 403 (see Refusal).
func Refuse(w http.ResponseWriter, kind, msg string) {
	WriteJSON(w, http.StatusForbidden, Refusal{Error: msg, Kind: kind})
}
