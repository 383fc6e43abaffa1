(* Open addressing with linear probing over a flat int array: bucket [b]
   holds its raw id at [table.(2b)] and its slot at [table.(2b + 1)], with
   slot [-1] marking an empty bucket. The table is kept at most half full.
   Buckets are picked by Fibonacci hashing (multiply by 2^63/phi, keep the
   top bits), so scattered, consecutive and strided ids all spread out; a
   lookup never calls [caml_hash] or polymorphic compare. *)
type t = {
  mutable table : int array;
  mutable shift : int;  (** [63 - log2 buckets] *)
  mutable mask : int;  (** [buckets - 1] *)
  mutable ids : Node_id.t array;  (** slot -> identifier *)
  mutable size : int;
}

let golden = 0x4F1BBCDCBFA53E0B

let rec log2_ceil n k = if 1 lsl k >= n then k else log2_ceil n (k + 1)

let empty_table bits =
  Array.init (2 lsl bits) (fun i -> if i land 1 = 1 then -1 else 0)

let create ?(hint = 16) () =
  let bits = max 3 (log2_ceil (2 * max hint 1) 0) in
  {
    table = empty_table bits;
    shift = 63 - bits;
    mask = (1 lsl bits) - 1;
    ids = Array.make (max hint 1) (Node_id.of_int 0);
    size = 0;
  }

let size t = t.size
let bucket t raw = (raw * golden) lsr t.shift

(* Slot of [raw], or [-1] when it was never registered. *)
let rec probe t raw b =
  let s = Array.unsafe_get t.table ((2 * b) + 1) in
  if s < 0 then -1
  else if Array.unsafe_get t.table (2 * b) = raw then s
  else probe t raw ((b + 1) land t.mask)

let find t id =
  let raw = Node_id.to_int id in
  probe t raw (bucket t raw)

let rec place t raw s b =
  if t.table.((2 * b) + 1) < 0 then begin
    t.table.(2 * b) <- raw;
    t.table.((2 * b) + 1) <- s
  end
  else place t raw s ((b + 1) land t.mask)

let rehash t =
  let bits = 64 - t.shift in
  t.table <- empty_table bits;
  t.shift <- 63 - bits;
  t.mask <- (1 lsl bits) - 1;
  for s = 0 to t.size - 1 do
    let raw = Node_id.to_int t.ids.(s) in
    place t raw s (bucket t raw)
  done

let intern t id =
  let s = find t id in
  if s >= 0 then s
  else begin
    let s = t.size in
    if s >= Array.length t.ids then begin
      let ids = Array.make (2 * Array.length t.ids) (Node_id.of_int 0) in
      Array.blit t.ids 0 ids 0 s;
      t.ids <- ids
    end;
    t.ids.(s) <- id;
    t.size <- s + 1;
    if 2 * t.size > t.mask + 1 then rehash t
    else begin
      let raw = Node_id.to_int id in
      place t raw s (bucket t raw)
    end;
    s
  end

let of_ids ids =
  let t = create ~hint:(List.length ids) () in
  List.iter (fun id -> ignore (intern t id)) ids;
  t

let slot t id =
  let s = find t id in
  if s < 0 then
    invalid_arg
      (Format.asprintf "Interner.slot: %a was never registered" Node_id.pp id);
  s

let find_opt t id =
  let s = find t id in
  if s < 0 then None else Some s

let mem t id = find t id >= 0
let sender_set t = Bitset.create ~hint:t.size ()

let extern t ix =
  if ix < 0 || ix >= t.size then
    invalid_arg (Printf.sprintf "Interner.extern: index %d out of 0..%d" ix (t.size - 1));
  t.ids.(ix)

let iter t f =
  for ix = 0 to t.size - 1 do
    f ix t.ids.(ix)
  done
