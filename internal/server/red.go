package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync/atomic"

	"dkindex/internal/obs"
)

// headerRequestID is echoed on every response: incoming values are kept (when
// well-formed) so distributed call chains stay correlated, otherwise the
// server mints one. Error bodies, the slow-query log and sampled traces all
// carry the same ID. The name is spelled in canonical MIME form, so header
// reads and writes with it need no canonicalised copy.
const headerRequestID = "X-Request-Id"

// routeRED is one route's pre-registered RED bundle (rate, errors, duration,
// plus in-flight), taken from the metric table's RED rows. NewBackend
// registers one per path of the route table plus the "other" catch-all,
// which bounds the label cardinality and leaves the per-request path a map
// lookup and a handful of atomics.
type routeRED struct {
	requests *obs.Counter
	err4xx   *obs.Counter
	err5xx   *obs.Counter
	inflight *obs.Gauge
	duration *obs.Histogram
}

func newRouteRED(reg *obs.Registry, route string) *routeRED {
	return &routeRED{
		requests: obs.HTTPRequests.Counter(reg, route),
		err4xx:   obs.HTTPErrors.Counter(reg, route, "4xx"),
		err5xx:   obs.HTTPErrors.Counter(reg, route, "5xx"),
		inflight: obs.HTTPInFlight.Gauge(reg, route),
		duration: obs.HTTPDuration.Histogram(reg, route),
	}
}

// Request IDs minted by the server: a per-process random prefix plus a
// sequence number — unique, cheap (no syscall per request) and greppable.
var (
	reqIDSeq    atomic.Uint64
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "dk"
		}
		return hex.EncodeToString(b[:])
	}()
)

// requestID returns the client's X-Request-ID when it is well-formed, a
// freshly minted one otherwise.
func requestID(r *http.Request) string {
	if id := r.Header.Get(headerRequestID); validRequestID(id) {
		return id
	}
	var buf [32]byte
	b := append(append(buf[:0], reqIDPrefix...), '-')
	return string(strconv.AppendUint(b, reqIDSeq.Add(1), 10))
}

// validRequestID accepts 1..128 characters of [A-Za-z0-9._-]: enough for
// UUIDs and trace IDs, while keeping header junk out of logs and JSON.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status so the middleware can classify
// errors after the handler returns. An untouched status means the handler
// wrote nothing yet (the implicit 200 is stamped on first Write). It also
// carries the request's ID down to the handlers.
type statusWriter struct {
	http.ResponseWriter
	status    int
	requestID string
}

// requestIDOf returns the ID the middleware gave the request w answers ("" for
// a writer that did not come through ServeHTTP).
func requestIDOf(w http.ResponseWriter) string {
	if sw, ok := w.(*statusWriter); ok {
		return sw.requestID
	}
	return ""
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}
