(* OCaml 4.14 stub: the networked runtime needs OCaml 5. Keeps the
   interface so [Ubpa_runtime] compiles everywhere; every operation
   raises, and Runner.run checks [available] to fail gracefully first. *)

let available = false

let unavailable_reason =
  "runtime unavailable: the networked runtime needs OCaml 5 \
   (this build is sequential-only)"

let unavailable () = failwith unavailable_reason

type handle = unit

let spawn (_ : unit -> unit) : handle = unavailable ()
let join (_ : handle) = unavailable ()

type 'a mailbox = unit

let mailbox () : 'a mailbox = unavailable ()
let push (_ : 'a mailbox) (_ : 'a) = unavailable ()
let drain (_ : 'a mailbox) : 'a list = unavailable ()

type doorbell = unit

let doorbell () : doorbell = unavailable ()
let ring (_ : doorbell) = unavailable ()
let wait (_ : doorbell) ~timeout:(_ : float) = unavailable ()
let close_doorbell (_ : doorbell) = unavailable ()
