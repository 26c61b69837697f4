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
// accepted enqueue). Shard is 0, a constant of the format.
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
// power-of-two [lo, hi, count] triples (stats.LogHist). Shards is 1, a
// constant of the format.
type histDoc struct {
	Schema       string      `json:"schema"`
	Seed         uint64      `json:"seed"`
	Shards       int         `json:"shards"`
	Decisions    Decisions   `json:"decisions"`
	TraceDropped int64       `json:"trace_dropped"`
	DelayNs      []classHist `json:"delay_ns"`
	QueueDepth   []linkHist  `json:"queue_depth"`
}

func buckets(h *stats.LogHist) []histBucket {
	out := []histBucket{}
	h.Buckets(func(lo, hi, count int64) {
		out = append(out, histBucket{lo, hi, count})
	})
	return out
}

// WriteHist renders the histogram document: a delay histogram per class, a
// depth histogram per link, the decision counters and the trace drops.
func (c *Collector) WriteHist(w io.Writer) error {
	doc := histDoc{
		Schema: HistSchema, Seed: c.seed, Shards: 1, Decisions: c.dec, TraceDropped: c.TraceDropped(),
		DelayNs: []classHist{}, QueueDepth: []linkHist{},
	}
	for class, name := range c.classes {
		h := &c.delayH[class]
		doc.DelayNs = append(doc.DelayNs, classHist{
			Class: name, N: h.N(), MeanNs: h.Mean(),
			P50Ns: h.Quantile(0.50), P90Ns: h.Quantile(0.90),
			P99Ns: h.Quantile(0.99), Buckets: buckets(h),
		})
	}
	for link, name := range c.links {
		h := &c.depth[link]
		doc.QueueDepth = append(doc.QueueDepth, linkHist{
			Link: name, N: h.N(), Mean: h.Mean(),
			P99: h.Quantile(0.99), Buckets: buckets(h),
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
