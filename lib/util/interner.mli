(** The sender index: a dense numbering of node identifiers.

    Identifiers drawn by {!Node_id.scatter} are sparse 30-bit integers.
    An interner gives each identifier a dense {e slot} [0..size-1] in
    registration order, so per-node sets become {!Bitset}s and per-node
    columns become arrays.

    Each engine run (the simulator's [Network], the checker, the replay
    oracle, the runtime's [Runner], the event simulator) owns one
    interner. It registers every participant with {!intern} before that
    participant's first message is delivered and hands the interner to
    every protocol state through [Protocol.S.init]. Protocols only read
    it: {!slot} to turn a sender into a bit position, {!extern} to turn a
    slot back into an identifier, {!sender_set} to allocate a set of
    slots. Because nothing writes an interner
    while protocol code reads it, one interner is shared by every node
    of a run, including the runtime's node threads and the checker's
    worker domains. See DESIGN.md, "Sender index".

    The table is specialised to integer keys (open addressing,
    multiplicative hashing): a lookup neither allocates nor calls the
    polymorphic hash or compare. *)

type t

val create : ?hint:int -> unit -> t
(** Fresh empty interner. [hint] is the expected number of identifiers;
    the table grows past it on demand. *)

val intern : t -> Node_id.t -> int
(** Register [id] and return its slot, assigning the next free slot
    ([size t]) on first sight. Idempotent. Engines only: a protocol never
    registers. *)

val of_ids : Node_id.t list -> t
(** A fresh interner with [ids] registered in list order. *)

val slot : t -> Node_id.t -> int
(** Slot of a registered identifier. Allocates nothing. Raises
    [Invalid_argument] for an identifier no engine registered. *)

val find_opt : t -> Node_id.t -> int option
(** Slot of [id] if registered. *)

val mem : t -> Node_id.t -> bool

val extern : t -> int -> Node_id.t
(** Inverse of {!slot}. Raises [Invalid_argument] for a slot never
    assigned. *)

val size : t -> int
(** Number of identifiers registered so far. Engines and tests only: in
    the id-only model a node knows what it has heard, not the
    population, so protocol code never reads this. *)

val sender_set : t -> Bitset.t
(** An empty set of slots with room for every identifier registered so
    far (it grows past that on demand). How protocols allocate sender
    sets once at their final size without reading {!size}. *)

val iter : t -> (int -> Node_id.t -> unit) -> unit
(** [iter t f] applies [f slot id] in ascending slot (registration)
    order. *)
