// Package dead is imported by nothing: it gets one finding at its
// package clause instead of one per declaration.
package dead // want:deadcode

// Helper would be live if anything imported the package.
func Helper() int { return helper() }

func helper() int { return 1 }
