package core

import (
	"fmt"
	"io"
	"os"

	"noceval/internal/obs"
	"noceval/internal/obs/export"
)

// Session is the cross-run set-up a command performs once around all of
// its experiments. Each command registers its own flags straight into the
// fields, then brackets its work with Open and Close.
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

	srv *export.Server
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
		if err = EnableLedger(s.Ledger); err != nil {
			return err
		}
	}
	if s.Cache {
		if err = EnableCache(s.CacheDir); err != nil {
			return err
		}
	}
	if s.Screen {
		EnableScreening()
	}
	return nil
}

// Close writes the run summary — cache traffic and screening outcome to w,
// the ledger count to Log — then turns off what Open turned on (the
// registry stays installed).
func (s *Session) Close(w io.Writer) error {
	if st, ok := CacheStats(); ok {
		fmt.Fprintf(w, "experiment cache: %s\n", st)
	}
	if s.Screen {
		st := &screenTotals
		fmt.Fprintf(w, "screening: simulated %d of %d sweep points (skipped %d, refined %d)\n",
			st.simulated.Load(), st.considered.Load(), st.skipped.Load(), st.refined.Load())
	}
	if s.Ledger != "" {
		fmt.Fprintf(s.Log, "run ledger: %d records appended to %s\n", LedgerAppends(), s.Ledger)
	}
	return s.release()
}

func (s *Session) release() error {
	if s.Screen {
		DisableScreening()
	}
	if s.Cache {
		DisableCache()
	}
	var err error
	if s.Ledger != "" {
		err = DisableLedger()
	}
	s.srv.Close()
	s.srv = nil
	return err
}
