package diff

import "repro/internal/report"

// CompareFiles loads both trenv-report/v1 bundles and diffs fresh
// against base. Unreadable files, malformed JSON and any other schema
// are plain errors; a source, seed or scale disagreement is a
// *MismatchError.
func CompareFiles(basePath, freshPath string, o Options) (*Result, error) {
	base, err := report.ReadFile(basePath)
	if err != nil {
		return nil, err
	}
	fresh, err := report.ReadFile(freshPath)
	if err != nil {
		return nil, err
	}
	return Compare(base, fresh, o)
}
