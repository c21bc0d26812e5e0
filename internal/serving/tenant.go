package serving

import (
	"net/http"
	"sort"
	"strconv"
	"strings"

	"medrelax/internal/server"
)

// TenantHeader selects a tenant when the request path carries no /t/
// prefix. The path prefix wins when both are present.
const TenantHeader = "X-Medrelax-Tenant"

// tenant is one named serving stack: its engine (cache partition,
// admission state, reload) and the fully wrapped handler.
type tenant struct {
	engine  *Engine
	handler http.Handler
}

// TenantServer routes requests across several independent serving stacks
// — one engine, cache partition, and API handler per named knowledge
// bundle — from a single listener. Resolution order: an explicit
// /t/{tenant}/... path prefix, then the X-Medrelax-Tenant header, then
// the default tenant (the first one added). An unknown tenant is the
// caller's 404. The tenant set is fixed after setup, so routing takes no
// lock.
type TenantServer struct {
	tenants map[string]*tenant
	def     string
}

// NewTenantServer returns an empty tenant router.
func NewTenantServer() *TenantServer {
	return &TenantServer{tenants: make(map[string]*tenant)}
}

// Add mounts a tenant: api is the tenant's server handler, which gets
// wrapped with the engine's instrumentation exactly like a single-tenant
// deployment. The first tenant added becomes the default.
func (t *TenantServer) Add(name string, e *Engine, api http.Handler) {
	t.tenants[name] = &tenant{engine: e, handler: e.Handler(api)}
	if t.def == "" {
		t.def = name
	}
}

// Engine returns a tenant's engine (for SIGHUP reload fan-out and tests).
func (t *TenantServer) Engine(name string) (*Engine, bool) {
	tn, ok := t.tenants[name]
	if !ok {
		return nil, false
	}
	return tn.engine, true
}

// Names lists the mounted tenants in sorted order.
func (t *TenantServer) Names() []string {
	out := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Handler returns the routing handler. A /t/{tenant} prefix is stripped
// before the request reaches the tenant's stack, so per-tenant paths look
// exactly like single-tenant ones to everything downstream (instrument's
// endpoint labels included).
func (t *TenantServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		if rest, ok := strings.CutPrefix(r.URL.Path, "/t/"); ok {
			var sub string
			name, sub, _ = strings.Cut(rest, "/")
			if name == "" {
				server.WriteError(w, http.StatusNotFound, "missing tenant in path")
				return
			}
			r2 := new(http.Request)
			*r2 = *r
			u := *r.URL
			u.Path = "/" + sub
			r2.URL = &u
			r = r2
		} else if h := r.Header.Get(TenantHeader); h != "" {
			name = h
		}
		if name == "" {
			name = t.def
		}
		tn, ok := t.tenants[name]
		if !ok {
			server.WriteError(w, http.StatusNotFound, "unknown tenant "+strconv.Quote(name))
			return
		}
		tn.handler.ServeHTTP(w, r)
	})
}
