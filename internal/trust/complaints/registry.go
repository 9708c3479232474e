package complaints

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// BackendConfig carries every tuning knob a registered backend may need;
// each backend reads only its own fields and ignores the rest, so one config
// can be threaded through all layers (market.Config, eval, cmd flags).
type BackendConfig struct {
	// Shards is the ShardedStore stripe count; 0 means DefaultShards.
	Shards int
	// BatchSize is the AsyncStore flush batch; 0 means DefaultBatchSize.
	BatchSize int
	// Inner names the backend an AsyncStore decorates; "" means "memory".
	// The "async:<inner>" spelling accepted by Open overrides it.
	Inner string
	// Seed drives seeded backends (the pgrid grid construction).
	Seed int64
	// GridPeers is the pgrid storage population; 0 means the backend's
	// default (64).
	GridPeers int
	// Replicas is the pgrid replica-vote count; 0 means the store's default.
	Replicas int
}

// Factory builds a fresh Store for one run.
type Factory func(cfg BackendConfig) (Store, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
	decorators = map[string]bool{} // backends that consume BackendConfig.Inner
)

// Register adds a backend under name. Backends register from init (this
// package registers "memory", "sharded" and "async"; internal/pgrid
// registers "pgrid"), so Register panics on programmer errors: empty names,
// nil factories, duplicates.
func Register(name string, f Factory) {
	register(name, f, false)
}

// RegisterDecorator adds a backend that stacks on an inner store
// (BackendConfig.Inner), making the "name:inner" spec form valid for it.
func RegisterDecorator(name string, f Factory) {
	register(name, f, true)
}

func register(name string, f Factory, decorator bool) {
	if name == "" || f == nil {
		panic("complaints: Register with empty name or nil factory")
	}
	if strings.Contains(name, ":") {
		panic(fmt.Sprintf("complaints: backend name %q must not contain ':'", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("complaints: backend %q registered twice", name))
	}
	registry[name] = f
	if decorator {
		decorators[name] = true
	}
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open builds a fresh store from a backend spec: a registered name
// ("memory", "sharded", "async", "pgrid"), optionally suffixed with the
// inner backend a decorator should stack on ("async:sharded",
// "async:pgrid"). Decentralised backends live in their own packages and are
// only available once those packages are linked in (internal/pgrid registers
// "pgrid" from init).
func Open(spec string, cfg BackendConfig) (Store, error) {
	name, inner, hasInner := strings.Cut(spec, ":")
	registryMu.RLock()
	f := registry[name]
	isDecorator := decorators[name]
	registryMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("complaints: unknown backend %q (registered: %s; decentralised backends need their package imported)",
			name, strings.Join(Backends(), ", "))
	}
	if hasInner {
		// Only decorators read Inner; anywhere else the suffix would be
		// silently ignored and the run mislabeled.
		if !isDecorator {
			return nil, fmt.Errorf("complaints: backend %q does not take an inner store (spec %q)", name, spec)
		}
		cfg.Inner = inner
	}
	return f(cfg)
}

func init() {
	Register("memory", func(BackendConfig) (Store, error) { return NewMemoryStore(), nil })
	Register("sharded", func(cfg BackendConfig) (Store, error) { return NewShardedStore(cfg.Shards), nil })
	RegisterDecorator("async", func(cfg BackendConfig) (Store, error) {
		innerName := cfg.Inner
		if innerName == "" {
			innerName = "memory"
		}
		if base, _, _ := strings.Cut(innerName, ":"); base == "async" {
			return nil, fmt.Errorf("complaints: async backend cannot wrap %q", innerName)
		}
		cfg.Inner = ""
		inner, err := Open(innerName, cfg)
		if err != nil {
			return nil, err
		}
		return NewAsyncStore(inner, AsyncConfig{BatchSize: cfg.BatchSize}), nil
	})
}
