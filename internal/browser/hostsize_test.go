package browser

import (
	"context"
	"strconv"
	"testing"
)

// The realm sizes each host object's property storage from the counts in
// dom.go, so that building it allocates that storage once. A builder that
// gains or loses a property without its count changing fails here: each
// object is counted as a script sees it, right after it is built.
func TestHostObjectSizes(t *testing.T) {
	script := `
		function n(o) { return Object.keys(o).length; }
		console.log("navigator " + n(navigator));
		console.log("screen " + n(screen));
		console.log("location " + n(location));
		console.log("window " + n(window));
		console.log("performance " + n(performance));
		console.log("console " + n(console));
		console.log("xhr " + n(new XMLHttpRequest()));
		console.log("byTag " + n(document.getElementsByTagName("p")[0]));
		console.log("byId " + n(document.getElementById("a")));
		console.log("created " + n(document.createElement("div")));
		console.log("document " + n(document));
		document.addEventListener("mousemove", function (e) { console.log("event " + n(e)); });
	`
	_, br := testWorld(t, scriptPage(script))
	if !br.Profile.MouseMovement {
		t.Fatal("the profile dispatches no mouse events; the test needs them")
	}
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScriptErrors) > 0 {
		t.Fatalf("script errors: %v", res.ScriptErrors)
	}
	prof := br.Profile
	for _, tc := range []struct {
		name string
		want int
	}{
		{"navigator ", navigatorProps},
		{"screen ", screenProps},
		{"location ", locationProps},
		{"window ", windowProps + countTrue(prof.ChromeObject, prof.CDPArtifacts, prof.ChromedriverArtifacts)},
		{"performance ", performanceProps},
		{"console ", consoleProps},
		{"xhr ", xhrProps},
		{"byTag ", elementProps},
		{"byId ", elementProps + innerHTMLProps + 1},
		{"created ", elementProps + innerHTMLProps + 1},
		{"document ", documentProps + rootProps},
		{"event ", eventProps},
	} {
		if got := consoleValue(t, res.Console, tc.name); got != strconv.Itoa(tc.want) {
			t.Errorf("%sholds %s properties, sized for %d", tc.name, got, tc.want)
		}
	}
}
