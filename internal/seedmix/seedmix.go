// Package seedmix is the repository's single seed-derivation and
// stream-construction rule: every component that fans one base seed out into
// independent random streams (market sessions and pairing, eval trials,
// gossip schedules) derives the seeds with Derive and builds the streams
// with NewRand, so shard boundaries and concurrency windows never shift
// results and the streams stay decorrelated across packages.
package seedmix

// Derive mixes a base seed with a stream index through SplitMix64. Adjacent
// indices yield decorrelated streams.
func Derive(base int64, stream uint64) int64 {
	z := uint64(base) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
