package main

import (
	"fmt"
	"net/http"

	"fixturemod/svc"
)

func main() {
	s := svc.New()
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.Handle) // a method value, not a call
	svc.Every(func() { fmt.Println(svc.Median([]float64{3, 1, 2})) })
	fmt.Println(svc.Info)
}
