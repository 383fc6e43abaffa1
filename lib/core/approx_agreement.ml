open Ubpa_util
open Ubpa_sim

type input = { value : float; iterations : int }
type progress = { iteration : int; estimate : float; n_v : int }
type message = Estimate of float
type output = progress
type stimulus = Leave

type state = {
  iterations : int;
  mutable estimate : float;
  mutable iteration : int;  (** completed iterations *)
  mutable leaving : bool;
}

let name = "approximate-agreement"

let init ~self:_ ~round:_ ~index:_ { value; iterations } =
  if iterations < 1 then invalid_arg "Approx_agreement: iterations must be >= 1";
  { iterations; estimate = value; iteration = 0; leaving = false }

let pp_message ppf (Estimate v) = Fmt.pf ppf "estimate(%g)" v

(* [Float.compare] rather than the structural default: estimates are
   floats, and polymorphic comparison on boxed floats is both slower and
   ill-defined on nan. *)
let compare_message (Estimate a) (Estimate b) = Float.compare a b
let equal_message a b = compare_message a b = 0
let encoded_bits = Protocol.structural_bits

let midpoint_rule values =
  match values with
  | [] -> None
  | _ ->
      let sorted = List.sort Float.compare values in
      let n_v = List.length sorted in
      let discard = Threshold.floor_third n_v in
      let kept =
        List.filteri (fun i _ -> i >= discard && i < n_v - discard) sorted
      in
      (* n_v >= 1 implies discard < n_v/2 only when n_v >= ... ; for tiny
         n_v (1 or 2) nothing is discarded, so [kept] is never empty. *)
      let lo = List.nth kept 0 in
      let hi = List.nth kept (List.length kept - 1) in
      Some ((lo +. hi) /. 2.)

let step ~self:_ ~round:_ ~stim st ~inbox =
  if List.mem Leave stim then st.leaving <- true;
  if st.iteration = 0 then begin
    (* First activity: just broadcast the input (Algorithm 4 line 1). *)
    st.iteration <- 1;
    (st, [ (Envelope.Broadcast, Estimate st.estimate) ], Protocol.Continue)
  end
  else begin
    (* One value per sender: a double-voting byzantine node contributes
       only its first-listed value (the inbox is sender-sorted and already
       deduplicated per (sender, payload) pair). *)
    let values =
      List.fold_left
        (fun (seen, acc) (src, Estimate v) ->
          if Node_id.Set.mem src seen then (seen, acc)
          else (Node_id.Set.add src seen, v :: acc))
        (Node_id.Set.empty, []) inbox
      |> snd
    in
    match midpoint_rule values with
    | None ->
        (* Heard nothing (degenerate single-node network): keep estimate. *)
        let out =
          { iteration = st.iteration; estimate = st.estimate; n_v = 0 }
        in
        if st.iteration >= st.iterations || st.leaving then
          (st, [], Protocol.Stop out)
        else begin
          st.iteration <- st.iteration + 1;
          (st, [ (Envelope.Broadcast, Estimate st.estimate) ], Protocol.Deliver out)
        end
    | Some midpoint ->
        st.estimate <- midpoint;
        let out =
          {
            iteration = st.iteration;
            estimate = midpoint;
            n_v = List.length values;
          }
        in
        if st.iteration >= st.iterations || st.leaving then
          (st, [], Protocol.Stop out)
        else begin
          st.iteration <- st.iteration + 1;
          (st, [ (Envelope.Broadcast, Estimate midpoint) ], Protocol.Deliver out)
        end
  end
