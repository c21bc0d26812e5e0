// Package server implements the HTTP JSON API over the relaxation system:
// the deployment shape the paper describes for its cloud-hosted relaxation
// service interacting with the conversational frontend. cmd/kbserver wires
// it to a listener.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/dialog"
	"medrelax/internal/engine"
)

// Backend is the relaxation system as the server sees it. engine.Snapshot
// satisfies it directly; the serving subsystem (internal/serving) wraps any
// Backend with caching, admission control, and hot reload, and is itself a
// Backend.
type Backend interface {
	// RelaxBatch is the one way to ask for relaxations: it answers requests
	// positionally, each with up to K ranked results — response i answers
	// request i, and a request that fails fails alone. A GET is a batch of
	// one. ctx carries the request deadline; implementations should abandon
	// work when it fires and answer an error wrapping the context error.
	RelaxBatch(ctx context.Context, reqs []Request) []Response
	// Terms returns up to n query terms known to map to flagged concepts —
	// what GET /terms serves load generators building a realistic query mix.
	Terms(n int) []string
	// NewConversation opens a fresh dialogue with relaxation enabled.
	NewConversation() (*dialog.Conversation, error)
	// Stats describes the loaded world.
	Stats() map[string]any
}

// Request, Response and RelaxResult are the engine's wire shapes re-exported,
// so handlers and backends share one vocabulary.
type (
	Request     = engine.Request
	Response    = engine.Response
	RelaxResult = engine.RelaxResult
)

// BatchItem spells Request the way bench/ does.
type BatchItem = Request // bench contract

// MaxBatchItems bounds a single /relax/batch request.
const MaxBatchItems = 256

// Server handles the API endpoints.
//
// Concurrency model: the /relax path takes no lock at all — the backend's
// relaxation pipeline (dense graph kernel, sharded similarity cache) is
// safe for concurrent use, so requests run truly in parallel. Only the
// /chat path locks: mu scopes to the session-table map itself, and each
// session carries its own mutex because a dialog.Conversation is stateful.
// Different sessions chat in parallel; two requests for one session are
// serialized.
type Server struct {
	backend Backend

	mu       sync.Mutex // guards sessions (the map only, never held during backend calls)
	sessions map[string]*session
	// MaxSessions bounds the session table. When full, the
	// longest-idle session (by last-turn time) is evicted to make room;
	// rejection happens only as a backstop when every session is
	// mid-turn and nothing can be evicted. Default 1024.
	MaxSessions int
}

// session is one conversation plus the mutex serializing its turns.
type session struct {
	mu   sync.Mutex
	conv *dialog.Conversation
	// lastTurn is the unix-nano time of the last activity, read by the
	// idle-eviction scan without taking mu (hence atomic).
	lastTurn atomic.Int64
}

func (s *session) touch() { s.lastTurn.Store(time.Now().UnixNano()) }

// New builds a server over a backend.
func New(backend Backend) *Server {
	return &Server{backend: backend, sessions: map[string]*session{}, MaxSessions: 1024}
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /relax", s.handleRelax)
	mux.HandleFunc("POST /relax/batch", s.handleRelaxBatch)
	mux.HandleFunc("GET /terms", s.handleTerms)
	mux.HandleFunc("POST /chat", s.handleChat)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.backend.Stats())
}

// handleTerms exposes a sample of relaxable query terms; load generators use
// it to build realistic mixes.
func (s *Server) handleTerms(w http.ResponseWriter, r *http.Request) {
	n := 100
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 1 || v > 100000 {
			WriteError(w, http.StatusBadRequest, "n must be an integer in [1, 100000]")
			return
		}
		n = v
	}
	WriteJSON(w, http.StatusOK, map[string]any{"terms": s.backend.Terms(n)})
}

// ChatRequest is the /chat request body.
type ChatRequest struct {
	Session string `json:"session"`
	Text    string `json:"text"`
	Reset   bool   `json:"reset,omitempty"`
}

// ChatResponse is the /chat response body.
type ChatResponse struct {
	Text        string   `json:"text"`
	Answers     []string `json:"answers,omitempty"`
	Suggestions []string `json:"suggestions,omitempty"`
	Related     []string `json:"related,omitempty"`
	Context     string   `json:"context"`
	Understood  bool     `json:"understood"`
	Relaxed     bool     `json:"relaxed"`
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	var req ChatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.Session == "" || (req.Text == "" && !req.Reset) {
		WriteError(w, http.StatusBadRequest, "session and text are required")
		return
	}
	sess, err := s.conversation(req.Session)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	// Serialize turns within this session only; other sessions proceed.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.touch()
	if sess.conv == nil {
		// A concurrent creator failed after this request found the slot.
		WriteError(w, http.StatusServiceUnavailable, "session initialization failed, retry")
		return
	}
	if req.Reset {
		sess.conv.Reset()
		if req.Text == "" {
			WriteJSON(w, http.StatusOK, ChatResponse{Text: "session reset", Understood: true})
			return
		}
	}
	resp := sess.conv.Ask(req.Text)
	WriteJSON(w, http.StatusOK, ChatResponse{
		Text:        resp.Text,
		Answers:     resp.Answers,
		Suggestions: resp.Suggestions,
		Related:     resp.Related,
		Context:     resp.Context.String(),
		Understood:  resp.Understood,
		Relaxed:     resp.UsedRelaxation,
	})
}

func (s *Server) conversation(name string) (*session, error) {
	s.mu.Lock()
	if sess, ok := s.sessions[name]; ok {
		s.mu.Unlock()
		return sess, nil
	}
	if len(s.sessions) >= s.MaxSessions && !s.evictIdleLocked() {
		n := len(s.sessions)
		s.mu.Unlock()
		return nil, fmt.Errorf("session table full (%d sessions, none idle)", n)
	}
	// Reserve the slot before building the conversation so the (possibly
	// slow) construction happens outside the table lock; concurrent
	// requests for the same new session serialize on the session mutex.
	sess := &session{}
	sess.touch()
	sess.mu.Lock()
	s.sessions[name] = sess
	s.mu.Unlock()
	defer sess.mu.Unlock()
	conv, err := s.backend.NewConversation()
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, name)
		s.mu.Unlock()
		return nil, fmt.Errorf("creating conversation: %w", err)
	}
	sess.conv = conv
	return sess, nil
}

// evictIdleLocked frees one slot by dropping the longest-idle session
// whose mutex can be taken without blocking (a session mid-turn is never
// evicted). Caller holds s.mu. Returns false when every session is busy —
// the hard-reject backstop.
func (s *Server) evictIdleLocked() bool {
	type cand struct {
		name string
		sess *session
		t    int64
	}
	cands := make([]cand, 0, len(s.sessions))
	for name, sess := range s.sessions {
		cands = append(cands, cand{name, sess, sess.lastTurn.Load()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].t < cands[j].t })
	for _, c := range cands {
		if !c.sess.mu.TryLock() {
			continue // mid-turn, not idle
		}
		delete(s.sessions, c.name)
		// Nil the conversation so a racing request that already fetched
		// this session pointer fails with "retry" instead of talking to
		// an evicted dialogue.
		c.sess.conv = nil
		c.sess.mu.Unlock()
		return true
	}
	return false
}

// WriteJSON answers status with v through encoding/json: the small admin and
// health bodies of the server, the serving layer and the router. Relax bodies
// never come here; encode.go appends them, errors included (WriteError).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("server: encoding response: %v", err)
	}
}
