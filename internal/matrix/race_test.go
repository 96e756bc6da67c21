//go:build race

package matrix

// raceEnabled trims the largest reference comparisons: the detector
// instruments every element access of the accessor-based references.
const raceEnabled = true
