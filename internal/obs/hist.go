package obs

import (
	"encoding/json"
	"io"

	"eac/internal/stats"
)

// HistSchema versions the histogram artifact layout.
const HistSchema = "eac/obs/hist/v1"

// histBucket is one [lo, hi] bucket with its count.
type histBucket [3]int64

// classHist is one class's delay distribution (log-bucket, ns).
type classHist struct {
	Class   string       `json:"class"`
	N       int64        `json:"n"`
	MeanNs  float64      `json:"mean_ns"`
	P50Ns   int64        `json:"p50_ns"`
	P90Ns   int64        `json:"p90_ns"`
	P99Ns   int64        `json:"p99_ns"`
	Buckets []histBucket `json:"buckets"`
}

// linkHist is one link's queue-depth distribution (occupancy after each
// accepted enqueue).
type linkHist struct {
	Link    string       `json:"link"`
	Shard   int          `json:"shard"`
	N       int64        `json:"n"`
	Mean    float64      `json:"mean"`
	P99     int64        `json:"p99"`
	Buckets []histBucket `json:"buckets"`
}

// histDoc is the histogram artifact: distributional stats that survive
// trace-ring wraparound, replacing point P99 estimates. Buckets are
// power-of-two [lo, hi, count] triples, exactly mergeable across shards
// and seeds (stats.LogHist).
type histDoc struct {
	Schema        string      `json:"schema"`
	Seed          uint64      `json:"seed"`
	Shards        int         `json:"shards"`
	ShardExecuted []uint64    `json:"shard_executed,omitempty"`
	Decisions     Decisions   `json:"decisions"`
	TraceDropped  int64       `json:"trace_dropped"`
	DelayNs       []classHist `json:"delay_ns"`
	QueueDepth    []linkHist  `json:"queue_depth"`
}

func buckets(h *stats.LogHist) []histBucket {
	out := []histBucket{}
	h.Buckets(func(lo, hi, count int64) {
		out = append(out, histBucket{lo, hi, count})
	})
	return out
}

// WriteHist renders the cross-shard histogram document: delay histograms
// merged per class (exact, by log-bucket addition) — every shard
// registers the same class list — depth histograms per (link, shard)
// because a link is owned by exactly one shard, decision counters and
// trace drops summed, and the per-shard executed-event counts when there
// is more than one shard to tell apart.
func (m *Merged) WriteHist(w io.Writer) error {
	doc := histDoc{
		Schema: HistSchema, Seed: m.seed, Shards: len(m.cs),
		DelayNs: []classHist{}, QueueDepth: []linkHist{},
	}
	if len(m.cs) > 1 {
		doc.ShardExecuted = m.exec
	}
	for class, name := range m.cs[0].classes {
		var merged stats.LogHist
		for _, c := range m.cs {
			if class < len(c.delayH) {
				merged.Merge(c.delayH[class])
			}
		}
		doc.DelayNs = append(doc.DelayNs, classHist{
			Class: name, N: merged.N(), MeanNs: merged.Mean(),
			P50Ns: merged.Quantile(0.50), P90Ns: merged.Quantile(0.90),
			P99Ns: merged.Quantile(0.99), Buckets: buckets(&merged),
		})
	}
	for shard, c := range m.cs {
		doc.Decisions.Admitted += c.dec.Admitted
		doc.Decisions.Rejected += c.dec.Rejected
		doc.TraceDropped += c.TraceDropped()
		for link := range c.links {
			h := &c.depth[link]
			doc.QueueDepth = append(doc.QueueDepth, linkHist{
				Link: c.links[link], Shard: shard, N: h.N(), Mean: h.Mean(),
				P99: h.Quantile(0.99), Buckets: buckets(h),
			})
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
