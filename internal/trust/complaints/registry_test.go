package complaints

import (
	"testing"
)

func TestOpenBuiltinBackends(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want any
	}{
		{"memory", (*MemoryStore)(nil)},
		{"sharded", (*ShardedStore)(nil)},
		{"async", (*AsyncStore)(nil)},
		{"async:sharded", (*AsyncStore)(nil)},
	} {
		s, err := Open(tc.spec, BackendConfig{})
		if err != nil {
			t.Fatalf("Open(%q): %v", tc.spec, err)
		}
		switch tc.want.(type) {
		case *MemoryStore:
			if _, ok := s.(*MemoryStore); !ok {
				t.Errorf("Open(%q) = %T, want *MemoryStore", tc.spec, s)
			}
		case *ShardedStore:
			if _, ok := s.(*ShardedStore); !ok {
				t.Errorf("Open(%q) = %T, want *ShardedStore", tc.spec, s)
			}
		case *AsyncStore:
			if _, ok := s.(*AsyncStore); !ok {
				t.Errorf("Open(%q) = %T, want *AsyncStore", tc.spec, s)
			}
		}
	}
}

func TestOpenAsyncInnerSelection(t *testing.T) {
	s, err := Open("async:sharded", BackendConfig{Shards: 4, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	as := s.(*AsyncStore)
	inner, ok := as.inner.(*ShardedStore)
	if !ok {
		t.Fatalf("async inner = %T, want *ShardedStore", as.inner)
	}
	if len(inner.shards) != 4 {
		t.Errorf("inner shards = %d, want 4", len(inner.shards))
	}
	// The spec's inner wins over BackendConfig.Inner.
	s2, err := Open("async:memory", BackendConfig{Inner: "sharded"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.(*AsyncStore).inner.(*MemoryStore); !ok {
		t.Errorf("async:memory inner = %T, want *MemoryStore", s2.(*AsyncStore).inner)
	}
}

func TestOpenRejectsUnknownAndNested(t *testing.T) {
	if _, err := Open("bogus", BackendConfig{}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := Open("async:async", BackendConfig{}); err == nil {
		t.Error("nested async accepted")
	}
	if _, err := Open("async", BackendConfig{Inner: "bogus"}); err == nil {
		t.Error("async over unknown inner accepted")
	}
	// Non-decorators must reject an inner suffix instead of silently
	// ignoring it (a "sharded:32" typo must not open a default store).
	for _, spec := range []string{"memory:sharded", "sharded:32"} {
		if _, err := Open(spec, BackendConfig{}); err == nil {
			t.Errorf("Open(%q) accepted an inner suffix on a non-decorator", spec)
		}
	}
}

func TestBackendsListsBuiltins(t *testing.T) {
	have := map[string]bool{}
	for _, name := range Backends() {
		have[name] = true
	}
	for _, want := range []string{"memory", "sharded", "async"} {
		if !have[want] {
			t.Errorf("Backends() missing %q: %v", want, Backends())
		}
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("memory", func(BackendConfig) (Store, error) { return NewMemoryStore(), nil })
}
