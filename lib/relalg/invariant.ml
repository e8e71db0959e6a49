exception Broken of string

let broken what = raise (Broken what)
