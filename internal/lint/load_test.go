package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tagEnv builds the tag environment of a pretend GOOS, mirroring
// hostBuildTag with the OS swapped out.
func tagEnv(goos string) func(string) bool {
	return func(tag string) bool {
		if tag == goos || tag == runtime.GOARCH {
			return true
		}
		if tag == "unix" {
			switch goos {
			case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "aix", "illumos", "ios":
				return true
			}
		}
		return false
	}
}

func parseFixtureFile(t *testing.T, name string) *ast.File {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "buildtags", name), nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBuildExcludedForSelectsExactlyOneSide pins the platform-pair
// contract: for every GOOS, exactly one of impl_linux.go/impl_other.go
// is in the build, and it is the right one.
func TestBuildExcludedForSelectsExactlyOneSide(t *testing.T) {
	linuxFile := parseFixtureFile(t, "impl_linux.go")
	otherFile := parseFixtureFile(t, "impl_other.go")
	for _, goos := range []string{"linux", "darwin", "windows", "plan9", "freebsd"} {
		env := tagEnv(goos)
		linuxIn := !buildExcludedFor(linuxFile, env)
		otherIn := !buildExcludedFor(otherFile, env)
		if linuxIn == otherIn {
			t.Errorf("GOOS=%s: impl_linux in=%v, impl_other in=%v; want exactly one side",
				goos, linuxIn, otherIn)
		}
		if wantLinux := goos == "linux"; linuxIn != wantLinux {
			t.Errorf("GOOS=%s: impl_linux in=%v, want %v", goos, linuxIn, wantLinux)
		}
	}
}

// TestBuildExcludedForIgnoreAndLegacy covers the always-excluded ignore
// tag and the legacy // +build syntax.
func TestBuildExcludedForIgnoreAndLegacy(t *testing.T) {
	ignored := parseFixtureFile(t, "ignored.go")
	for _, goos := range []string{"linux", "windows"} {
		if !buildExcludedFor(ignored, tagEnv(goos)) {
			t.Errorf("GOOS=%s: //go:build ignore file should be excluded", goos)
		}
	}
	// A lone legacy constraint: gofmt would add the //go:build twin to a
	// file on disk, so the source lives here.
	fset := token.NewFileSet()
	legacy, err := parser.ParseFile(fset, "legacy.go", "// +build linux darwin\n\npackage lib\n\nconst legacyTag = \"unixish\"\n", parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if buildExcludedFor(legacy, tagEnv("linux")) {
		t.Error("legacy +build linux darwin file should be included on linux")
	}
	if buildExcludedFor(legacy, tagEnv("darwin")) {
		t.Error("legacy +build linux darwin file should be included on darwin")
	}
	if !buildExcludedFor(legacy, tagEnv("windows")) {
		t.Error("legacy +build linux darwin file should be excluded on windows")
	}
}

// TestBuildExcludedForUnparseableConstraint pins the conservative
// choice: a constraint that does not parse would not build, so the file
// is excluded rather than failing the package load.
func TestBuildExcludedForUnparseableConstraint(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "bad.go", "//go:build &&\n\npackage lib\n", parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if !buildExcludedFor(f, tagEnv("linux")) {
		t.Error("unparseable constraint should exclude the file")
	}
}

// TestLoadBuildtagsFixture loads the fixture module end to end: it only
// type-checks if exactly one platform file made the file set, since
// both sides declare impl.
func TestLoadBuildtagsFixture(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "buildtags"))
	if err != nil {
		t.Fatalf("fixture must type-check with exactly one platform file: %v", err)
	}
	if len(m.Pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(m.Pkgs))
	}
	want := "impl_other.go"
	if runtime.GOOS == "linux" {
		want = "impl_linux.go"
	}
	var names []string
	for _, f := range m.Pkgs[0].Files {
		names = append(names, filepath.Base(m.Fset.Position(f.Package).Filename))
	}
	got := strings.Join(names, " ")
	if !strings.Contains(got, want) {
		t.Errorf("file set %q is missing the host side %s", got, want)
	}
	if strings.Contains(got, "ignored.go") {
		t.Errorf("file set %q includes the ignore-tagged file", got)
	}
}
