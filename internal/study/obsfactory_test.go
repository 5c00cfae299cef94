package study

import (
	"strings"
	"sync"
	"testing"

	"tlsfof/internal/classify"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/hostdb"
)

// TestNewObsFactoryMissingChain: a host with no authoritative chain fails
// factory construction, naming the host — not a campaign mid-run.
func TestNewObsFactoryMissingChain(t *testing.T) {
	hosts := hostdb.SecondStudyHosts()
	auth, err := BuildAuthoritative(hosts[1:], sharedPool)
	if err != nil {
		t.Fatal(err)
	}
	_, err = newObsFactory(classify.NewClassifier(), sharedPool, hosts, auth, clientpop.Study2Deployments())
	if err == nil || !strings.Contains(err.Error(), hosts[0].Name) {
		t.Fatalf("newObsFactory with %s missing: err = %v", hosts[0].Name, err)
	}
}

// TestObservationConcurrentReaders: goroutines racing to fill and read
// every (deployment, host) slot all see the values a single-goroutine
// factory derives. Run under -race this is the check on the lock-free
// final table.
func TestObservationConcurrentReaders(t *testing.T) {
	build := func() *obsFactory {
		w, err := newWorld(&Config{Study: clientpop.Study2, Pool: sharedPool}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w.factory
	}
	ref := build()
	want := make([][]core.Observation, len(ref.deps))
	for di := range ref.deps {
		want[di] = make([]core.Observation, len(ref.hosts))
		for hi := range ref.hosts {
			o, err := ref.observation(di, hi)
			if err != nil {
				t.Fatal(err)
			}
			want[di][hi] = o
		}
	}

	f := build()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range f.deps {
				for hi := range f.hosts {
					got, err := f.observation(di, hi)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[di][hi] {
						t.Errorf("deployment %d host %d: got %+v, want %+v", di, hi, got, want[di][hi])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
