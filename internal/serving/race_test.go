//go:build race

package serving

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of Put items on purpose, so the workspace pool re-mints
// workspaces and allocation plateaus cannot hold.
const raceEnabled = true
