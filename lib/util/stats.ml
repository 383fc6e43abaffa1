let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile p = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
      List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let range = function
  | [] | [ _ ] -> 0.
  | xs ->
      let lo, hi = min_max xs in
      hi -. lo

let histogram ~buckets xs =
  match xs with
  | [] -> []
  | _ ->
      let lo, hi = min_max xs in
      let width =
        if hi = lo then 1. else (hi -. lo) /. float_of_int buckets
      in
      let counts = Array.make buckets 0 in
      let place x =
        let i = int_of_float ((x -. lo) /. width) in
        let i = max 0 (min (buckets - 1) i) in
        counts.(i) <- counts.(i) + 1
      in
      List.iter place xs;
      List.init buckets (fun i ->
          ( lo +. (float_of_int i *. width),
            lo +. (float_of_int (i + 1) *. width),
            counts.(i) ))
