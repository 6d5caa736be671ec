// Package deadcode is the root package of the deadcode fixture: its
// exported API is a reachability root alongside cmd/app's main.
package deadcode

import "fixturemod/svc"

// Start is exported API of the root package, so it and what it
// reaches are live.
func Start() *svc.Server { return svc.New() }

// internalOnly is unexported and nothing calls it.
func internalOnly() {} // want:deadcode
