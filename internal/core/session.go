package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"noceval/internal/expcache"
	"noceval/internal/obs"
	"noceval/internal/obs/export"
	"noceval/internal/obs/ledger"
)

// Session owns the state a command's runs share — experiment cache, run
// ledger, sweep screening and its totals, live metrics endpoint. All of it
// is off until Open, and in the zero Session. A run finds its session in
// its context, the default session when it carries none.
type Session struct {
	Serve    string // live metrics listen address; "" = off
	Registry bool   // install the process-wide registry even without Serve
	Ledger   string // run-ledger path; "" = off
	Cache    bool   // experiment cache on, stored under CacheDir
	CacheDir string
	Screen   bool // analytic sweep screening on
	// Log receives the notices about side channels (metrics address, ledger
	// record count); nil means os.Stderr, keeping stdout for results.
	Log io.Writer

	srv    *export.Server
	exp    atomic.Pointer[expcache.Cache] // nil = caching off
	led    atomic.Pointer[ledger.Ledger]  // nil = recording off
	screen atomic.Pointer[screenTally]    // nil = screening off
}

// defaultSession is the session of runs whose context carries none;
// EnableCache, DisableCache, CacheStats and DisableScreening act on it.
var defaultSession Session

// sessionKey keys the Session a run executes in, in its context.
type sessionKey struct{}

// sessionOf returns the session ctx (nil included) carries.
func sessionOf(ctx context.Context) *Session {
	if ctx != nil {
		if s, _ := ctx.Value(sessionKey{}).(*Session); s != nil {
			return s
		}
	}
	return &defaultSession
}

// bind returns ctx carrying s; nil or the default session leaves ctx as it
// is, so a nil ctx stays nil (not cancellable).
func (s *Session) bind(ctx context.Context) context.Context {
	if s == nil || s == &defaultSession {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, sessionKey{}, s)
}

// Open turns on everything the fields select, registry first: the cache
// attaches its instruments to whatever registry is installed when it
// opens. On error nothing stays on.
func (s *Session) Open() (err error) {
	defer func() {
		if err != nil {
			s.release()
		}
	}()
	if s.Log == nil {
		s.Log = os.Stderr
	}
	if (s.Serve != "" || s.Registry) && obs.Default() == nil {
		obs.SetDefault(obs.NewRegistry())
	}
	if s.Serve != "" {
		if s.srv, err = export.Serve(s.Serve, obs.Default()); err != nil {
			return err
		}
		fmt.Fprintf(s.Log, "serving live metrics on http://%s/metrics\n", s.srv.Addr())
	}
	if s.Ledger != "" {
		// A torn final line from a crashed process is recovered on open.
		var l *ledger.Ledger
		if l, err = ledger.Open(s.Ledger); err != nil {
			return err
		}
		s.led.Store(l)
	}
	if s.Cache {
		if err = s.openCache(s.CacheDir); err != nil {
			return err
		}
	}
	if s.Screen {
		s.screen.Store(new(screenTally))
	}
	return nil
}

// Close writes the run summary — cache traffic and screening outcome to w,
// the ledger count to Log — then turns off what Open turned on (the
// registry stays installed).
func (s *Session) Close(w io.Writer) error {
	if c := s.exp.Load(); c != nil {
		fmt.Fprintf(w, "experiment cache: %s\n", c.Stats())
	}
	if st := s.screen.Load(); st != nil {
		fmt.Fprintf(w, "screening: simulated %d of %d sweep points (skipped %d, refined %d)\n",
			st.simulated.Load(), st.considered.Load(), st.skipped.Load(), st.refined.Load())
	}
	if l := s.led.Load(); l != nil {
		fmt.Fprintf(s.Log, "run ledger: %d records appended to %s\n", l.Appends(), s.Ledger)
	}
	return s.release()
}

func (s *Session) release() error {
	s.screen.Store(nil)
	s.exp.Store(nil)
	err := s.led.Swap(nil).Close()
	s.srv.Close()
	s.srv = nil
	return err
}
