// Package lib exercises the suppression machinery: a well-formed
// //fdvet:ignore silences a finding, a reason-less one is itself
// reported and silences nothing.
package lib

import "context"

func ctxUser(ctx context.Context) {
	_ = ctx
}

// GoodIgnored is suppressed with an analyzer name and a reason.
func GoodIgnored() {
	//fdvet:ignore ctxflow fixture exercises the suppression path
	ctxUser(context.Background())
}

// BadMalformed has a directive without a reason: the directive is
// reported and the TODO finding survives.
func BadMalformed() {
	//fdvet:ignore ctxflow
	ctxUser(context.TODO())
}
