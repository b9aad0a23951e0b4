let internal_only () = 1

let via_alias () = internal_only () + 1

let via_open () = 3

let via_test () = 4
