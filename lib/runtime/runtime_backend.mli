(** Concurrency backend for the networked runtime, chosen at build time by
    dune's [(select)] — the same pattern as {!Ubpa_harness.Pool}'s
    executor: on OCaml 5 (detected via the [runtime_events] library, which
    only exists there) nodes run on system threads, and the in-process
    transport has Mutex-protected mailboxes and socketpair doorbells; on
    4.14 a stub keeps the
    interface so the rest of the runtime compiles, and every operation
    raises [Failure "runtime unavailable: ..."]. Callers must check
    {!available} first — {!Ubpa_runtime.Runner.run} turns it into a
    graceful [Error]. *)

val available : bool
(** Whether this build can actually run per-node concurrent processes. *)

val unavailable_reason : string
(** The message surfaced when [available = false] (mentions the OCaml 5
    requirement); empty on the concurrent backend. *)

(** {2 Node processes}

    A node spends nearly all of its time blocked in a system call
    (a read on the peer it waits for), so a system thread is enough:
    unlike a domain it costs no stop-the-world on spawn, join or minor
    GC, and it has no cap of 128 per program. *)

type handle

val spawn : (unit -> unit) -> handle
(** Start one node process (a system thread). *)

val join : handle -> unit
(** Wait for the node to finish; re-raises its uncaught exception. *)

(** {2 Mailboxes and doorbells}

    These serve the in-process transport ({!Transport_domains}) alone:
    the socket transport waits in a read on the peer's own socket.

    A mailbox is one per node: any node may {!push} an item, only the
    owner {!drain}s. FIFO per producer. The Mutex inside gives the
    happens-before edge the runtime relies on: anything a node writes
    before {!push} is visible to the owner after {!drain} returns it. *)

type 'a mailbox

val mailbox : unit -> 'a mailbox
val push : 'a mailbox -> 'a -> unit

val drain : 'a mailbox -> 'a list
(** Everything currently queued, in arrival order; empties the mailbox. *)

(** A doorbell is one per node, beside its mailbox: any node may {!ring}
    it, only the owner {!wait}s on it. A ring is never lost: one that
    arrives while the owner is not waiting makes the owner's next
    {!wait} return at once. A wait may also return with nothing new to
    see (an old ring that the owner's last drain already answered), so
    the owner re-checks its condition after every wait. *)

type doorbell

val doorbell : unit -> doorbell
(** A socketpair: two file descriptors until {!close_doorbell}. *)

val ring : doorbell -> unit
(** A one-byte non-blocking write. Never blocks. *)

val wait : doorbell -> timeout:float -> unit
(** Block until the doorbell has been rung since the previous [wait]
    (consuming the rings), or for [timeout] seconds, whichever comes
    first. An unrung wait lasts at least [timeout] on the wall clock: a
    call interrupted by a signal, or a kernel timer that fires a little
    early, waits again for the time that is left. [infinity] waits for a
    ring alone; [timeout <= 0.] returns at once. *)

val close_doorbell : doorbell -> unit
(** Release both descriptors. Call it once nobody rings or waits on the
    doorbell any more. *)
