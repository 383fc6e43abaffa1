open Ubpa_util
open Ubpa_sim
open Unknown_ba

module Make (V : Value.S) = struct
  type input = { value : V.t; members : Node_id.t list; f : int }
  type message = Value of V.t | Propose of V.t | King of V.t
  type stimulus = Protocol.No_stimulus.t
  type output = V.t

  module Value_tally = Tally.Make (V)

  type state = {
    self : Node_id.t;
    index : Interner.t;  (** the run's sender index, shared *)
    members : Node_id.t list;  (** ascending; kings rotate through it *)
    n : int;
    f : int;
    mutable x : V.t;
    mutable local_round : int;
    mutable propose_count_high : bool;
        (** saw >= n - f proposals for the adopted value this phase *)
    mutable king_pending : Node_id.t option;
        (** king whose broadcast arrives next round *)
  }

  let name = "phase-king"

  let init ~self ~round:_ ~index { value; members; f } =
    let members = Node_id.sorted members in
    {
      self;
      index;
      members;
      n = List.length members;
      f;
      x = value;
      local_round = 0;
      propose_count_high = false;
      king_pending = None;
    }

  let pp_message ppf = function
    | Value x -> Fmt.pf ppf "value(%a)" V.pp x
    | Propose x -> Fmt.pf ppf "propose(%a)" V.pp x
    | King x -> Fmt.pf ppf "king(%a)" V.pp x

  let compare_message a b =
    match (a, b) with
    | Value x, Value y -> V.compare x y
    | Value _, (Propose _ | King _) -> -1
    | (Propose _ | King _), Value _ -> 1
    | Propose x, Propose y -> V.compare x y
    | Propose _, King _ -> -1
    | King _, Propose _ -> 1
    | King x, King y -> V.compare x y

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  let king_of st phase = List.nth st.members ((phase - 1) mod st.n)

  (* Phase structure (local rounds, 1-based):
     round 3k+1: apply pending king, broadcast value(x);
     round 3k+2: value counts -> maybe propose;
     round 3k+3: propose counts -> maybe adopt; king broadcasts king(x). *)
  let step ~self:_ ~round:_ ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    let phase = ((st.local_round - 1) / 3) + 1 in
    let pos = ((st.local_round - 1) mod 3) + 1 in
    let tally_of extract =
      let t = Value_tally.create ~index:st.index () in
      List.iter
        (fun (src, msg) ->
          if List.exists (Node_id.equal src) st.members then
            match extract msg with
            | Some x -> Value_tally.add t ~sender:src x
            | None -> ())
        inbox;
      t
    in
    match pos with
    | 1 ->
        (* Apply the previous phase's king if we were not confident. *)
        (match st.king_pending with
        | None -> ()
        | Some king ->
            let king_value =
              List.fold_left
                (fun acc (src, msg) ->
                  match msg with
                  | King x when Node_id.equal src king -> Some x
                  | _ -> acc)
                None inbox
            in
            (match king_value with
            | Some kx when not st.propose_count_high -> st.x <- kx
            | _ -> ());
            st.king_pending <- None);
        if phase > st.f + 1 then (st, [], Protocol.Stop st.x)
        else begin
          st.propose_count_high <- false;
          (st, [ (Envelope.Broadcast, Value st.x) ], Protocol.Continue)
        end
    | 2 ->
        let t = tally_of (function Value x -> Some x | _ -> None) in
        let sends =
          match Value_tally.max_by_count t with
          | Some (y, c) when c >= st.n - st.f ->
              [ (Envelope.Broadcast, Propose y) ]
          | _ -> []
        in
        (st, sends, Protocol.Continue)
    | _ ->
        let t = tally_of (function Propose x -> Some x | _ -> None) in
        (match Value_tally.max_by_count t with
        | Some (z, c) when c >= st.f + 1 ->
            st.x <- z;
            st.propose_count_high <- c >= st.n - st.f
        | _ -> st.propose_count_high <- false);
        st.king_pending <- Some (king_of st phase);
        let sends =
          if Node_id.equal (king_of st phase) st.self then
            [ (Envelope.Broadcast, King st.x) ]
          else []
        in
        (st, sends, Protocol.Continue)
end
