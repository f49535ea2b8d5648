package crawlerbox

import (
	"slices"
	"testing"
)

// otpCodesReference is findOTPCodes without the prefilter: the plain regexp
// scan, kept as the oracle the prefiltered version must agree with.
func otpCodesReference(text string) []string {
	var out []string
	for _, m := range _otpRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

func TestFindOTPCodesMatchesRegexp(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"otp", "Your OTP: 123456", []string{"123456"}},
		{"one-time", "One-Time code 654321 expires soon", []string{"654321"}},
		// U+017F (long s) case-folds to s under (?i), so the regexp matches
		// "acceſs code"; the prefilter must still pass it through via "code".
		{"long s", "acceſs code 111111", []string{"111111"}},
		{"upper phrase", "SECURITY CODE: 222333", []string{"222333"}},
		{"two codes", "otp 100200, then your access code is 300400", []string{"100200", "300400"}},
		{"digits without phrase", "Invoice 987654 is attached", nil},
		{"phrase without digits", "Enter the security code we sent you", nil},
		{"neither", "plain text with nothing of interest", nil},
		{"empty", "", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := findOTPCodes(tc.text)
			if !slices.Equal(got, tc.want) {
				t.Errorf("findOTPCodes(%q) = %q, want %q", tc.text, got, tc.want)
			}
			if ref := otpCodesReference(tc.text); !slices.Equal(got, ref) {
				t.Errorf("findOTPCodes(%q) = %q, regexp alone = %q", tc.text, got, ref)
			}
		})
	}
}

// FuzzFindOTPCodes checks that the prefilter never hides a match the
// regexp alone would find.
func FuzzFindOTPCodes(f *testing.F) {
	for _, seed := range []string{
		"OTP: 123456",
		"One-Time code 654321",
		"one\ntime 123456",
		"acceſs code 111111",
		"SECURITY CODE",
		"ACCESS CODE 000000",
		"Kode 123456",
		"123456",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := findOTPCodes(text), otpCodesReference(text); !slices.Equal(got, want) {
			t.Fatalf("findOTPCodes(%q) = %q, regexp alone = %q", text, got, want)
		}
	})
}
