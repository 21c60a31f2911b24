package model

// CheckAgainstReference is checkAgainstReference for the external tests,
// which draw patterns from internal/enum (an importer of this package).
var CheckAgainstReference = checkAgainstReference
